// Dynamic adjacency-list graph with mutual edge references.
//
// This is the 6m + O(n) representation of §3.3: every undirected edge is a
// pair of half-edges that reference each other ("twin"), each threaded into
// a doubly-linked per-vertex list. It supports the two operations BDTwo
// needs that CSR cannot provide: O(deg) vertex deletion that also unlinks
// the mirror entries, and vertex contraction (degree-two folding) which can
// *grow* a neighbourhood.
#ifndef RPMIS_GRAPH_ADJACENCY_GRAPH_H_
#define RPMIS_GRAPH_ADJACENCY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "support/fast_set.h"

namespace rpmis {

/// Mutable undirected graph over a fixed vertex universe [0, n) whose
/// vertices can be removed and contracted.
class AdjacencyGraph {
 public:
  explicit AdjacencyGraph(const Graph& g);

  Vertex NumVertices() const { return static_cast<Vertex>(head_.size()); }

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

  std::vector<HalfEdge> half_;
  std::vector<uint32_t> head_;     // first half-edge per vertex (kNilHalf if none)
  std::vector<uint32_t> degree_;
  std::vector<uint8_t> alive_;
  uint64_t alive_edges_ = 0;
  FastSet scratch_;
};

}  // namespace rpmis

#endif  // RPMIS_GRAPH_ADJACENCY_GRAPH_H_
