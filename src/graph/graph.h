// Immutable CSR graph: the primary in-memory representation.
//
// Matches §2 of the paper ("Graph Representation"): the adjacency arrays of
// all vertices live in one flat array of 2m entries plus n+1 offsets, i.e.
// 2m + O(n) integers. All four Reducing-Peeling algorithms run directly on
// this structure with tombstone deletion; only BDTwo (which contracts
// vertices) needs the linked AdjacencyGraph. The dynamic-update engine
// keeps a Graph as the base of its current graph (src/dynamic/engine.h).
#ifndef RPMIS_GRAPH_GRAPH_H_
#define RPMIS_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/assert.h"

namespace rpmis {

/// Vertex identifier. Graphs in this library are limited to 2^32-2 vertices.
using Vertex = uint32_t;

/// Sentinel for "no vertex".
inline constexpr Vertex kInvalidVertex = static_cast<Vertex>(-1);

/// An undirected edge as an (unordered) pair of endpoints.
using Edge = std::pair<Vertex, Vertex>;

/// Immutable undirected simple graph in compressed-sparse-row form.
///
/// Neighbour lists are sorted, self-loop free, and duplicate free. The
/// number of *undirected* edges is NumEdges(); the flat adjacency array has
/// 2 * NumEdges() entries.
class Graph {
 public:
  /// Empty graph.
  Graph() : offsets_(1, 0) {}

  /// Builds a graph with `n` vertices from an undirected edge list.
  /// Self-loops are dropped and duplicate edges collapsed. Dispatches to
  /// the parallel build for large inputs when NumThreads() > 1; the
  /// resulting CSR (offsets and neighbour array) is byte-identical to the
  /// serial build regardless of thread count.
  static Graph FromEdges(Vertex n, std::span<const Edge> edges);
  static Graph FromEdges(Vertex n, const std::vector<Edge>& edges) {
    return FromEdges(n, std::span<const Edge>(edges));
  }

  /// The reference single-threaded two-pass counting-sort build.
  static Graph FromEdgesSerial(Vertex n, std::span<const Edge> edges);

  /// The multi-threaded build: per-thread degree counting into shared
  /// atomic counters, prefix-sum placement through atomic cursors, then
  /// parallel per-vertex sort/dedup/compaction. Safe (and deterministic)
  /// at any thread count including 1; exposed for tests and benchmarks.
  static Graph FromEdgesParallel(Vertex n, std::span<const Edge> edges);

  /// Adopts an already-normalized CSR: `offsets` has n+1 entries starting
  /// at 0 and ending at neighbors.size(), and every adjacency slice is
  /// strictly increasing, self-loop free, and symmetric. The caller is
  /// responsible for those invariants (graph/io validates untrusted files
  /// before calling this); only the array shape is asserted here.
  static Graph FromCsr(std::vector<uint64_t> offsets,
                       std::vector<Vertex> neighbors);

  Vertex NumVertices() const { return static_cast<Vertex>(offsets_.size() - 1); }
  uint64_t NumEdges() const { return neighbors_.size() / 2; }

  uint32_t Degree(Vertex v) const {
    RPMIS_DASSERT(v < NumVertices());
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Sorted neighbour list of `v`.
  std::span<const Vertex> Neighbors(Vertex v) const {
    RPMIS_DASSERT(v < NumVertices());
    return {neighbors_.data() + offsets_[v], neighbors_.data() + offsets_[v + 1]};
  }

  /// Offset of v's adjacency slice in the flat neighbour array; the
  /// directed edge id of (v, Neighbors(v)[i]) is EdgeBegin(v) + i.
  uint64_t EdgeBegin(Vertex v) const { return offsets_[v]; }
  uint64_t EdgeEnd(Vertex v) const { return offsets_[v + 1]; }

  /// Target of the directed edge with id `e`.
  Vertex EdgeTarget(uint64_t e) const { return neighbors_[e]; }

  /// True iff the edge (u, v) exists. O(log deg) via binary search on the
  /// smaller endpoint's list.
  bool HasEdge(Vertex u, Vertex v) const;

  /// Maximum vertex degree (0 for the empty graph).
  uint32_t MaxDegree() const;

  /// Average degree 2m/n (0 for the empty graph).
  double AverageDegree() const {
    return NumVertices() == 0 ? 0.0
                              : 2.0 * static_cast<double>(NumEdges()) / NumVertices();
  }

  /// The raw CSR arrays (n + 1 offsets, 2m flat neighbour entries). For
  /// solvers that maintain a compacted working copy of the adjacency
  /// (mis/working_graph.h) and start with a zero-copy view of the input.
  std::span<const uint64_t> RawOffsets() const { return offsets_; }
  std::span<const Vertex> RawNeighbors() const { return neighbors_; }

  /// All undirected edges with u < v, in sorted order.
  std::vector<Edge> CollectEdges() const;

  /// Induced subgraph on `vertices`; `old_to_new` (optional out) receives
  /// the vertex renaming (kInvalidVertex for dropped vertices).
  Graph InducedSubgraph(std::span<const Vertex> vertices,
                        std::vector<Vertex>* old_to_new = nullptr) const;

 private:
  friend class GraphBuilder;

  std::vector<uint64_t> offsets_;   // n + 1
  std::vector<Vertex> neighbors_;   // 2m, sorted per vertex
};

/// Incremental builder for Graph. Accepts edges in any order, in either
/// direction, with duplicates and self-loops; Build() normalizes.
class GraphBuilder {
 public:
  explicit GraphBuilder(Vertex n) : n_(n) {}

  Vertex NumVertices() const { return n_; }

  void AddEdge(Vertex u, Vertex v) {
    RPMIS_ASSERT(u < n_ && v < n_);
    edges_.emplace_back(u, v);
  }

  void Reserve(size_t m) { edges_.reserve(m); }

  /// Normalizes and produces the CSR graph. The builder keeps its edges and
  /// can continue to be used afterwards.
  Graph Build() const { return Graph::FromEdges(n_, edges_); }

 private:
  Vertex n_;
  std::vector<Edge> edges_;
};

}  // namespace rpmis

#endif  // RPMIS_GRAPH_GRAPH_H_
