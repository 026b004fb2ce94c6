// Compaction options and counters, and the monotone vertex renaming.
//
// The renaming and the induced-CSR builder below serve the working graph's
// mid-run rebuild (mis/working_graph.h), NearLinear's LP input and kernel,
// and the kernelizer's LP pass.
#ifndef RPMIS_MIS_COMPACTION_H_
#define RPMIS_MIS_COMPACTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/assert.h"
#include "support/parallel.h"

namespace rpmis {

struct CompactionOptions {
  /// Master switch (the CLI's --no-compaction sets this to false).
  bool enabled = true;
  /// Rebuild when active vertices < threshold * (size of last build).
  double threshold = 0.5;
  /// Never compact a working graph smaller than this (the rebuild would
  /// cost more than the scans it saves).
  Vertex min_vertices = 64;
};

/// Per-run compaction counters, surfaced through MisSolution / benchkit.
/// The *_scanned totals count work done by the rebuilds themselves (old
/// side), the *_kept totals what the rebuilds produced (new side); under
/// geometric thresholds both stay O(n + m) for the whole run.
struct CompactionStats {
  uint64_t compactions = 0;
  uint64_t vertices_scanned = 0;  // old-side vertices walked by rebuilds
  uint64_t slots_scanned = 0;     // old-side adjacency slots walked
  uint64_t vertices_kept = 0;     // new-side vertices produced
  uint64_t slots_kept = 0;        // new-side adjacency slots produced

  CompactionStats& operator+=(const CompactionStats& other);
};

/// A monotone old->new renaming over one keep set.
struct VertexRenaming {
  std::vector<Vertex> to_new;  // old id -> new id, kInvalidVertex if dropped
  std::vector<Vertex> kept;    // new id -> old id, increasing in old id
};

/// Builds the renaming keeping exactly the vertices with keep[v] != 0.
VertexRenaming BuildRenaming(std::span<const uint8_t> keep);

/// Builds the CSR of the subgraph induced by the kept vertices, in new ids.
/// `neighbors(v)` yields v's adjacency span in old ids; neighbours that are
/// not kept are dropped and per-vertex slot order is preserved, so sorted
/// input slices stay sorted (the renaming is monotone). Counted, then
/// filled in parallel over disjoint slices: byte-identical at any
/// RPMIS_THREADS. `on_slot(v, j, pos)` is told that slot j of kept vertex v
/// landed at new slot pos.
template <typename Neighbors, typename OnSlot>
void BuildInducedCsr(const VertexRenaming& renaming, const Neighbors& neighbors,
                     std::vector<uint64_t>* offsets, std::vector<Vertex>* adj,
                     const OnSlot& on_slot) {
  // Below this many kept vertices the parallel fan-out costs more than the
  // fill; both passes then run inline.
  constexpr size_t kParallelGrain = 4096;
  const size_t new_n = renaming.kept.size();
  offsets->assign(new_n + 1, 0);
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t count = 0;
      for (const Vertex w : neighbors(renaming.kept[i])) {
        count += renaming.to_new[w] != kInvalidVertex;
      }
      (*offsets)[i + 1] = count;
    }
  });
  for (size_t i = 1; i <= new_n; ++i) (*offsets)[i] += (*offsets)[i - 1];
  adj->resize((*offsets)[new_n]);
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Vertex v = renaming.kept[i];
      const std::span<const Vertex> nbrs = neighbors(v);
      uint64_t pos = (*offsets)[i];
      for (size_t j = 0; j < nbrs.size(); ++j) {
        const Vertex target = renaming.to_new[nbrs[j]];
        if (target == kInvalidVertex) continue;
        (*adj)[pos] = target;
        on_slot(v, j, pos);
        ++pos;
      }
      RPMIS_DASSERT(pos == (*offsets)[i + 1]);
    }
  });
}

/// The induced subgraph of BuildInducedCsr over sorted adjacencies, adopted
/// by Graph::FromCsr without a sort.
template <typename Neighbors>
Graph BuildCompactGraph(const VertexRenaming& renaming, const Neighbors& neighbors) {
  std::vector<uint64_t> offsets;
  std::vector<Vertex> adj;
  BuildInducedCsr(renaming, neighbors, &offsets, &adj, [](Vertex, size_t, uint64_t) {});
  return Graph::FromCsr(std::move(offsets), std::move(adj));
}

}  // namespace rpmis

#endif  // RPMIS_MIS_COMPACTION_H_
