// Shared plumbing for the experiment harness binaries.
//
// Every bench accepts `--fast` (subsample instances, shrink budgets) so
// the full suite can be smoke-tested quickly; default runs reproduce the
// EXPERIMENTS.md numbers.
#ifndef RPMIS_BENCH_BENCH_UTIL_H_
#define RPMIS_BENCH_BENCH_UTIL_H_

#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "benchkit/datasets.h"
#include "benchkit/obs_session.h"
#include "benchkit/run.h"
#include "benchkit/table.h"
#include "graph/graph.h"
#include "mis/solution.h"
#include "mis/verify.h"
#include "support/assert.h"
#include "support/timer.h"

namespace rpmis::bench {

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Keeps the first `keep` specs in fast mode.
inline std::vector<DatasetSpec> MaybeSubsample(std::vector<DatasetSpec> specs,
                                               bool fast, size_t keep) {
  if (fast && specs.size() > keep) specs.resize(keep);
  return specs;
}

struct NamedAlgorithm {
  std::string name;
  std::function<MisSolution(const Graph&)> run;
};

/// Runs `algo` on g, validates the result, and returns it; aborts on an
/// invalid solution so a broken heuristic can never "win" a table.
inline MisSolution RunChecked(const NamedAlgorithm& algo, const Graph& g) {
  MisSolution sol = algo.run(g);
  RPMIS_ASSERT_MSG(IsMaximalIndependentSet(g, sol.in_set),
                   "bench algorithm produced an invalid solution");
  return sol;
}

inline void PrintHeader(const std::string& title, const std::string& claim) {
  std::cout << "\n=== " << title << " ===\n";
  if (!claim.empty()) std::cout << "Paper claim: " << claim << "\n";
  std::cout << std::endl;
}

struct MeasuredSolve {
  MisSolution sol;
  double seconds = 0.0;
};

/// RunChecked under a fresh observability run: the session's sinks are
/// installed for the solve, and one JSONL record (wall time, solution
/// counters, resource probe) is committed on return. The human table and
/// the machine record come from the same measurement.
inline MeasuredSolve MeasureChecked(ObsSession& obs, const NamedAlgorithm& algo,
                                    const Graph& g,
                                    const std::string& dataset) {
  ObsSession::Run run = obs.Start(algo.name, dataset, /*seed=*/0);
  Timer t;
  MeasuredSolve out;
  out.sol = RunChecked(algo, g);
  out.seconds = t.Seconds();
  run.NoteSeconds(out.seconds);
  run.NoteSolution(out.sol);
  return out;
}

/// Copies a fork-isolated measurement into `record`: wall and child CPU
/// time, paging activity, and the child's peak-RSS growth when VmHWM was
/// readable (absent otherwise, per the record contract).
inline void NoteChildMeasurement(RunRecord& record, const ChildMeasurement& m) {
  record.AddNumber("time.wall_seconds", m.seconds);
  if (!m.ok) {
    record.AddString("status", "fail");
    return;
  }
  record.AddNumber("time.child_utime_seconds", m.utime_seconds);
  record.AddNumber("time.child_stime_seconds", m.stime_seconds);
  record.AddNumber("mem.child_minor_faults",
                   static_cast<double>(m.minor_faults));
  record.AddNumber("mem.child_major_faults",
                   static_cast<double>(m.major_faults));
  if (m.rss_available) {
    record.AddNumber("mem.child_peak_rss_delta_kb",
                     static_cast<double>(m.peak_rss_delta_kb));
  }
}

}  // namespace rpmis::bench

#endif  // RPMIS_BENCH_BENCH_UTIL_H_
