// Metrics registry: named monotone counters and last-write gauges.
//
// The one place counters are named: solutions and the dynamic engine
// publish their structs' fields here (MisSolution::PublishMetrics,
// DynamicMisEngine::PublishMetrics), and every sink — the --metrics and
// --records JSONL lines, mis_cli --stats through FormatMetrics — reads
// one sorted snapshot instead of knowing the structs. Names are dotted
// lowercase paths ("rules.degree_one", "compaction.slots_kept",
// "dynamic.update_latency.p99_us").
//
// Thread-safe; hot-path cost is one hash lookup under a mutex, so solver
// code publishes aggregates once per run (or per phase), never per
// vertex.
#ifndef RPMIS_OBS_METRICS_H_
#define RPMIS_OBS_METRICS_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rpmis::obs {

class MetricsRegistry {
 public:
  /// Adds `delta` to counter `name` (creating it at zero).
  void Add(std::string_view name, uint64_t delta);

  /// Sets gauge `name` to `value` (last write wins).
  void Set(std::string_view name, double value);

  /// Counter value, or 0 when `name` is unknown or is a gauge.
  uint64_t Counter(std::string_view name) const;

  /// Gauge value, or `fallback` when `name` is unknown or is a counter.
  double Gauge(std::string_view name, double fallback = 0.0) const;

  bool Contains(std::string_view name) const;

  struct Entry {
    std::string name;
    bool is_counter = false;  // counters are exact uint64; gauges double
    uint64_t counter = 0;
    double gauge = 0.0;

    double AsDouble() const {
      return is_counter ? static_cast<double>(counter) : gauge;
    }
  };

  /// Name-sorted snapshot of every metric.
  std::vector<Entry> Snapshot() const;

  void Clear();

 private:
  struct Cell {
    bool is_counter = false;
    uint64_t counter = 0;
    double gauge = 0.0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Cell> cells_;
};

/// One "name value" line per entry, in snapshot order: counters as
/// integers, gauges as %.15g (integral gauges such as "solution.size"
/// stay exact, fractional ones print without float noise).
std::string FormatMetrics(std::span<const MetricsRegistry::Entry> entries);

}  // namespace rpmis::obs

#endif  // RPMIS_OBS_METRICS_H_
