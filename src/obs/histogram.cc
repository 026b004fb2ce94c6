#include "obs/histogram.h"

#include <cmath>
#include <string>

#include "obs/metrics.h"

namespace rpmis::obs {

namespace {

// Bucket index for a latency: smallest i with latency_us <= 2^i.
int BucketIndex(double seconds) {
  const double us = seconds * 1e6;
  if (!(us > 1.0)) return 0;  // <= 1us (and NaN/negative) land in bucket 0
  const int i = static_cast<int>(std::ceil(std::log2(us)));
  return i >= LatencyHistogram::kBuckets ? LatencyHistogram::kBuckets - 1 : i;
}

}  // namespace

void LatencyHistogram::Record(double seconds) {
  ++buckets_[BucketIndex(seconds)];
  ++count_;
  sum_seconds_ += seconds;
}

double LatencyHistogram::QuantileSeconds(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) return std::ldexp(1.0, i) * 1e-6;
  }
  return std::ldexp(1.0, kBuckets - 1) * 1e-6;
}

void LatencyHistogram::PublishTo(MetricsRegistry& metrics,
                                 std::string_view prefix) const {
  const std::string base(prefix);
  metrics.Add(base + ".count", count_);
  metrics.Add(base + ".sum_us",
              static_cast<uint64_t>(sum_seconds_ * 1e6 + 0.5));
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    metrics.Add(base + ".le_us." + std::to_string(1ULL << i), buckets_[i]);
  }
  metrics.Set(base + ".mean_us", MeanSeconds() * 1e6);
  metrics.Set(base + ".p50_us", QuantileSeconds(0.5) * 1e6);
  metrics.Set(base + ".p99_us", QuantileSeconds(0.99) * 1e6);
}

void LatencyHistogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_seconds_ = 0.0;
}

}  // namespace rpmis::obs
