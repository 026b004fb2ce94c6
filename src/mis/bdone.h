// BDOne (Algorithm 2): Reducing-Peeling with the degree-one reduction.
//
// O(m) time, 2m + O(n) space. Reducing applies Lemma 2.1 (for a degree-one
// vertex u, some maximum independent set contains u, so u's neighbour can
// be deleted); Peeling temporarily removes the highest-degree vertex using
// the lazy singly-linked bin-sort structure of §3.2.
#ifndef RPMIS_MIS_BDONE_H_
#define RPMIS_MIS_BDONE_H_

#include "graph/graph.h"
#include "mis/per_component.h"
#include "mis/solution.h"

namespace rpmis {

struct BDOneOptions {
  /// Mid-run alive-subgraph rebuilds (mis/working_graph.h). Output is
  /// byte-identical with compaction disabled or at any threshold.
  CompactionOptions compaction;
};

/// Computes a maximal independent set of g with BDOne. If `capture` is
/// non-null it receives the kernel graph right before the first peel.
MisSolution RunBDOne(const Graph& g, KernelSnapshot* capture = nullptr,
                     const BDOneOptions& options = {});

/// Component-wise BDOne: runs RunBDOne on every connected component
/// independently (concurrently when opts.parallel) and merges. Output is
/// independent of the thread count.
MisSolution RunBDOnePerComponent(const Graph& g,
                                 const PerComponentOptions& opts = {},
                                 const BDOneOptions& options = {});

}  // namespace rpmis

#endif  // RPMIS_MIS_BDONE_H_
