#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace rpmis::obs {

void MetricsRegistry::Add(std::string_view name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[std::string(name)];
  cell.is_counter = true;
  cell.counter += delta;
}

void MetricsRegistry::Set(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[std::string(name)];
  cell.is_counter = false;
  cell.gauge = value;
}

uint64_t MetricsRegistry::Counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(std::string(name));
  if (it == cells_.end() || !it->second.is_counter) return 0;
  return it->second.counter;
}

double MetricsRegistry::Gauge(std::string_view name, double fallback) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(std::string(name));
  if (it == cells_.end() || it->second.is_counter) return fallback;
  return it->second.gauge;
}

bool MetricsRegistry::Contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.find(std::string(name)) != cells_.end();
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::Snapshot() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(cells_.size());
    for (const auto& [name, cell] : cells_) {
      out.push_back(Entry{name, cell.is_counter, cell.counter, cell.gauge});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
}

std::string FormatMetrics(std::span<const MetricsRegistry::Entry> entries) {
  std::string out;
  char value[32];
  for (const MetricsRegistry::Entry& e : entries) {
    if (e.is_counter) {
      std::snprintf(value, sizeof(value), "%" PRIu64, e.counter);
    } else {
      std::snprintf(value, sizeof(value), "%.15g", e.gauge);
    }
    out += e.name;
    out += ' ';
    out += value;
    out += '\n';
  }
  return out;
}

}  // namespace rpmis::obs
