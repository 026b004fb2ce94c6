// Compaction options and counters, and the monotone vertex renaming.
//
// The mid-run rebuild itself is mis/working_graph.h's. The renaming and
// the compact edge-list builders below are shared with the LP-reduction
// prepasses (NearLinear, the kernelizer).
#ifndef RPMIS_MIS_COMPACTION_H_
#define RPMIS_MIS_COMPACTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

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

/// Emits the renamed edge list {(to_new[v], to_new[w]) : v < w, both kept}
/// exactly as the serial nested loop over increasing v would, but counted
/// and filled in parallel. Shared by the LP-reduction prepasses.
void BuildCompactEdges(const Graph& g, const VertexRenaming& renaming,
                       std::vector<Edge>* edges);

/// Same, over a sorted adjacency-list representation whose lists contain
/// only kept vertices (the kernelizer's state).
void BuildCompactEdges(const std::vector<std::vector<Vertex>>& adj,
                       const VertexRenaming& renaming, std::vector<Edge>* edges);

}  // namespace rpmis

#endif  // RPMIS_MIS_COMPACTION_H_
