// Dynamic adjacency-list graph with mutual edge references.
//
// This is the 6m + O(n) representation of §3.3: every undirected edge is a
// pair of half-edges that reference each other ("twin"), each threaded into
// a doubly-linked per-vertex list. It supports the two operations BDTwo
// needs that CSR cannot provide: O(deg) vertex deletion that also unlinks
// the mirror entries, and vertex contraction (degree-two folding) which can
// *grow* a neighbourhood. For the dynamic-update engine (src/dynamic) it
// additionally supports O(deg) single-edge insertion/deletion over a
// free-list of dead half-edge slots, and vertex-universe growth.
#ifndef RPMIS_GRAPH_ADJACENCY_GRAPH_H_
#define RPMIS_GRAPH_ADJACENCY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "support/fast_set.h"

namespace rpmis {

/// Mutable undirected graph over a growable vertex universe [0, n).
/// Vertices can be removed and contracted; edges can also be *inserted*:
/// dead half-edge slots (from removals/contractions) are recycled through
/// a free list before the pool grows, so a workload that deletes as much
/// as it inserts stays within the initial 6m + O(n) footprint.
class AdjacencyGraph {
 public:
  explicit AdjacencyGraph(const Graph& g);

  Vertex NumVertices() const { return static_cast<Vertex>(head_.size()); }

  /// Number of remaining (alive) vertices.
  Vertex NumAliveVertices() const { return alive_count_; }

  /// Number of remaining undirected edges.
  uint64_t NumAliveEdges() const { return alive_edges_; }

  bool IsAlive(Vertex v) const { return alive_[v] != 0; }
  uint32_t Degree(Vertex v) const { return degree_[v]; }

  /// Calls `fn(w)` for every current neighbour w of v.
  template <typename Fn>
  void ForEachNeighbor(Vertex v, Fn fn) const {
    for (uint32_t h = head_[v]; h != kNilHalf; h = half_[h].next) fn(half_[h].to);
  }

  /// Collects the current neighbours of v into a vector (test/debug aid).
  std::vector<Vertex> NeighborsOf(Vertex v) const;

  /// True iff edge (u, v) currently exists. O(min(deg(u), deg(v))).
  bool HasEdge(Vertex u, Vertex v) const;

  /// Removes v and all incident edges. Every surviving neighbour whose
  /// degree changed is appended to `touched` (if non-null).
  void RemoveVertex(Vertex v, std::vector<Vertex>* touched);

  /// Contracts v into w (both alive, v != w): afterwards w's neighbourhood
  /// is (N(v) ∪ N(w)) \ {v, w} and v is gone. Vertices whose degree changed
  /// (including w) are appended to `touched`.
  void ContractInto(Vertex v, Vertex w, std::vector<Vertex>* touched);

  /// Inserts the edge (u, v), u != v. Dead endpoints (previously removed
  /// or contracted away) are revived as isolated vertices first. Returns
  /// false (and changes nothing beyond the revivals) if the edge already
  /// exists. O(min(deg(u), deg(v))).
  bool InsertEdge(Vertex u, Vertex v);

  /// Removes the single edge (u, v) if present; returns whether it was.
  /// The freed half-edge pair is recycled by later insertions. O(deg).
  bool RemoveEdge(Vertex u, Vertex v);

  /// Appends a new isolated alive vertex and returns its id.
  Vertex AddVertex();

  /// Marks a dead vertex alive again (as an isolated vertex). No-op for
  /// alive vertices.
  void ReviveVertex(Vertex v);

  /// Snapshot of the remaining graph as an edge list over original ids.
  std::vector<Edge> CollectAliveEdges() const;

 private:
  static constexpr uint32_t kNilHalf = static_cast<uint32_t>(-1);

  struct HalfEdge {
    Vertex to;       // target vertex
    uint32_t twin;   // index of the opposite half-edge
    uint32_t prev;   // previous half-edge in the source vertex's list
    uint32_t next;   // next half-edge in the source vertex's list
  };

  // Unlinks half-edge h from the list of vertex `owner`.
  void Unlink(Vertex owner, uint32_t h);
  // Pushes half-edge h to the front of `owner`'s list.
  void PushFront(Vertex owner, uint32_t h);
  // Pops a recycled half-edge slot, or grows the pool.
  uint32_t AllocHalf();

  std::vector<HalfEdge> half_;
  std::vector<uint32_t> free_halves_;  // dead slots available for reuse
  std::vector<uint32_t> head_;     // first half-edge per vertex (kNilHalf if none)
  std::vector<uint32_t> degree_;
  std::vector<uint8_t> alive_;
  Vertex alive_count_ = 0;
  uint64_t alive_edges_ = 0;
  FastSet scratch_;
};

}  // namespace rpmis

#endif  // RPMIS_GRAPH_ADJACENCY_GRAPH_H_
