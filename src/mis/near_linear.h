// NearLinear (Algorithm 5): Reducing-Peeling with the degree-two path
// reductions and the dominance reduction, applied incrementally via
// per-edge triangle counts (Lemma 5.2: u dominates v iff
// δ(u,v) = d(u) - 1).
//
// O(m·Δ) worst case, 4m + O(n) space (adjacency copy + triangle counts +
// reverse-edge index). A deletion sweeps the slots of each alive
// neighbour, which is where the Δ comes from, except that a neighbour in
// no triangle and with no degree-one neighbour costs O(1) (DESIGN.md §3).
// Two prepasses shrink Δ and the instance before the main loop, as in §5:
//   1. one-pass dominance in decreasing-degree order, O(m·a(G));
//   2. the Nemhauser–Trotter LP reduction, O(m√n).
// Both are exact and both can be disabled for ablation.
#ifndef RPMIS_MIS_NEAR_LINEAR_H_
#define RPMIS_MIS_NEAR_LINEAR_H_

#include "graph/graph.h"
#include "mis/per_component.h"
#include "mis/solution.h"

namespace rpmis {

struct NearLinearOptions {
  bool one_pass_dominance = true;
  bool lp_reduction = true;
  /// Mid-run alive-subgraph rebuilds of the main-loop kernel
  /// (mis/working_graph.h). Output is byte-identical with compaction
  /// disabled or at any threshold.
  CompactionOptions compaction;
};

/// Computes a maximal independent set of g with NearLinear. If `capture`
/// is non-null it receives the kernel right before the first peel.
MisSolution RunNearLinear(const Graph& g, KernelSnapshot* capture = nullptr,
                          const NearLinearOptions& options = {});

/// Component-wise NearLinear: runs RunNearLinear (with `options`) on
/// every connected component independently (concurrently when
/// opts.parallel) and merges. Output is independent of the thread count.
MisSolution RunNearLinearPerComponent(const Graph& g,
                                      const PerComponentOptions& opts = {},
                                      const NearLinearOptions& options = {});

/// The standalone one-pass dominance prepass: processes vertices in
/// decreasing degree order and deletes every vertex dominated by a
/// (not-larger-degree) neighbour. `alive` and `deg` are updated in place;
/// vertices whose degree reaches zero are flagged in `in_set`. Returns the
/// number of deletions. NearLinear runs it as its first prepass; the
/// benchmark also times it on its own.
uint64_t OnePassDominance(const Graph& g, std::vector<uint8_t>& alive,
                          std::vector<uint32_t>& deg,
                          std::vector<uint8_t>& in_set);

}  // namespace rpmis

#endif  // RPMIS_MIS_NEAR_LINEAR_H_
