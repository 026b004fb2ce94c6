// Log-scaled latency histogram for high-frequency events.
//
// The dynamic-update engine decides thousands of updates per second; a
// per-update Metrics()->Add() would serialize every update on the
// registry mutex. Instead the owner records into this plain (non-atomic,
// single-writer) histogram — one clamp + increment per event — and
// publishes the bucket counts into a MetricsRegistry once per batch under
// the dotted-name convention:
//
//   <prefix>.count, <prefix>.sum_us, <prefix>.le_us.<edge>
//
// plus the gauges <prefix>.mean_us, <prefix>.p50_us and <prefix>.p99_us.
//
// Buckets are powers of two in microseconds (…, le_us.1, le_us.2,
// le_us.4, …), cumulative-friendly without being cumulative: each bucket
// counts events with edge/2 < latency_us <= edge.
#ifndef RPMIS_OBS_HISTOGRAM_H_
#define RPMIS_OBS_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace rpmis::obs {

class MetricsRegistry;

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 48;  // 1us .. ~2^47us (~4.4 years)

  void Record(double seconds);

  uint64_t Count() const { return count_; }
  double SumSeconds() const { return sum_seconds_; }
  double MeanSeconds() const { return count_ == 0 ? 0.0 : sum_seconds_ / count_; }

  /// Upper bucket edge (in seconds) containing the q-quantile event,
  /// q in [0, 1]. A log-bucketed estimate: exact to within a factor 2.
  double QuantileSeconds(double q) const;

  /// Bucket count for the bucket with upper edge 2^i microseconds.
  uint64_t BucketCount(int i) const { return buckets_[i]; }

  /// Writes count/sum and every non-empty bucket into `metrics` as
  /// counters named "<prefix>.count", "<prefix>.sum_us",
  /// "<prefix>.le_us.<2^i>", and the mean, p50 and p99 (QuantileSeconds)
  /// as gauges "<prefix>.mean_us", "<prefix>.p50_us", "<prefix>.p99_us".
  /// Safe to call repeatedly only on a registry that is cleared between
  /// publishes (counters accumulate).
  void PublishTo(MetricsRegistry& metrics, std::string_view prefix) const;

  void Reset();

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_seconds_ = 0.0;
};

}  // namespace rpmis::obs

#endif  // RPMIS_OBS_HISTOGRAM_H_
