// Measurement helpers for the experiment harness.
//
// Memory (the paper uses memusage(1)) is measured by forking: the child
// runs the workload and reports its own peak RSS (VmHWM) delta through a
// pipe, so concurrent measurements never contaminate each other. Up to
// four uint64 payload values can be returned alongside time and memory
// (e.g. solution size, peel count).
#ifndef RPMIS_BENCHKIT_RUN_H_
#define RPMIS_BENCHKIT_RUN_H_

#include <cstdint>
#include <functional>
#include <optional>

namespace rpmis {

/// Current process peak resident set size (VmHWM) in KiB, or nullopt when
/// /proc/self/status is unreadable or has no parseable VmHWM line (e.g. a
/// hardened container). The status path can be overridden with the
/// RPMIS_PROC_STATUS_PATH environment variable (the test hook for the
/// unavailable path; re-read on every call).
std::optional<uint64_t> TryPeakRssKb();

struct ChildMeasurement {
  double seconds = 0.0;
  uint64_t peak_rss_delta_kb = 0;  // child VmHWM growth during the run
  /// True when VmHWM was readable in the child; when false,
  /// peak_rss_delta_kb is meaningless (record sinks mark it absent).
  bool rss_available = false;
  /// Child CPU time and paging activity over the run (getrusage deltas;
  /// RUSAGE_SELF in the child, so the parent's history never pollutes it).
  double utime_seconds = 0.0;
  double stime_seconds = 0.0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
  uint64_t payload[4] = {0, 0, 0, 0};
  bool ok = false;
};

/// Forks, runs `body` in the child (which may fill `payload`), and
/// returns wall time, peak-RSS growth and rusage (CPU time, page faults)
/// attributable to the run. Falls back to in-process measurement when
/// fork/pipe is unavailable (or when the RPMIS_MEASURE_IN_PROCESS
/// environment variable is set non-zero — the test hook for that path).
/// Both paths share one contract: a failed run — child crash, signal,
/// nonzero exit, or `body` throwing in the fallback — yields ok = false
/// with a zeroed payload (never partial data), and any forked child is
/// reaped in every branch.
ChildMeasurement MeasureInChild(const std::function<void(uint64_t payload[4])>& body);

}  // namespace rpmis

#endif  // RPMIS_BENCHKIT_RUN_H_
