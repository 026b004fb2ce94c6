// Differential testing harness for the dynamic-update engine.
//
// Replays an update stream through a DynamicMisEngine and, in lockstep,
// through an independent mirror graph (hash-set adjacency — sharing no
// code with the engine's graph store). At every checked step it
//
//   1. audits the engine's internal invariants,
//   2. cross-checks the engine's graph snapshot against the mirror,
//   3. verifies the maintained set is independent and maximal on the
//      mirror's alive-induced subgraph (mis/verify.h), and
//   4. solves that subgraph from scratch with LinearTime and checks the
//      maintained size stays within `min_ratio` of the scratch size.
//
// This is the acceptance harness of ISSUE 5: over random 1k-update
// streams the maintained set must be a valid MIS within 1% of
// from-scratch at every step. tests/dynamic_differential_test.cc drives
// it; scripts/check_dynamic.sh re-runs it at RPMIS_THREADS=8.
#ifndef RPMIS_DYNAMIC_DIFFERENTIAL_H_
#define RPMIS_DYNAMIC_DIFFERENTIAL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dynamic/engine.h"
#include "dynamic/update.h"
#include "graph/graph.h"

namespace rpmis {

struct DifferentialOptions {
  /// Run the (expensive) checks every k-th update; the final state is
  /// always checked.
  uint32_t check_every = 1;
  /// Minimum engine_size / scratch_size at every checked step.
  double min_ratio = 0.99;
  /// Absolute slack on the ratio check: a step only counts as a ratio
  /// failure when scratch - engine > abs_slack AND the ratio is below
  /// min_ratio. On tiny graphs a single-vertex difference (often a pure
  /// tie-break artifact between the full-universe and renumbered solves)
  /// dwarfs any percentage bound; acceptance streams keep this at 0.
  uint64_t abs_slack = 0;
  /// Cross-check the engine's CurrentGraph() edges against the mirror.
  bool check_graph = true;
  DynamicPolicy policy;
};

struct DifferentialReport {
  uint64_t updates_applied = 0;
  uint64_t steps_checked = 0;
  uint64_t invariant_failures = 0;
  uint64_t graph_mismatches = 0;
  uint64_t validity_failures = 0;  // not independent or not maximal
  uint64_t ratio_failures = 0;
  double worst_ratio = 1.0;
  /// First failure in human terms (empty when ok()).
  std::string first_failure;

  bool ok() const {
    return invariant_failures == 0 && graph_mismatches == 0 &&
           validity_failures == 0 && ratio_failures == 0;
  }
  std::string Summary() const;
};

/// Replays `updates` on `g0` and cross-checks as described above.
DifferentialReport RunDifferentialStream(const Graph& g0,
                                         std::span<const GraphUpdate> updates,
                                         const DifferentialOptions& options = {});

}  // namespace rpmis

#endif  // RPMIS_DYNAMIC_DIFFERENTIAL_H_
