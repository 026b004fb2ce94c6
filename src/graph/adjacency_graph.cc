#include "graph/adjacency_graph.h"

#include <utility>

namespace rpmis {

AdjacencyGraph::AdjacencyGraph(const Graph& g)
    : head_(g.NumVertices(), kNilHalf),
      degree_(g.NumVertices(), 0),
      alive_(g.NumVertices(), 1),
      alive_edges_(g.NumEdges()),
      scratch_(g.NumVertices()) {
  half_.resize(2 * g.NumEdges());
  // Lay out the two halves of each undirected edge consecutively so the
  // twin of half-edge h is h ^ 1.
  uint32_t next_half = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (Vertex w : g.Neighbors(v)) {
      if (v >= w) continue;
      const uint32_t hv = next_half++;
      const uint32_t hw = next_half++;
      half_[hv] = {w, hw, kNilHalf, kNilHalf};
      half_[hw] = {v, hv, kNilHalf, kNilHalf};
      PushFront(v, hv);
      PushFront(w, hw);
      ++degree_[v];
      ++degree_[w];
    }
  }
  RPMIS_ASSERT(next_half == half_.size());
}

void AdjacencyGraph::Unlink(Vertex owner, uint32_t h) {
  const HalfEdge& e = half_[h];
  if (e.prev != kNilHalf) {
    half_[e.prev].next = e.next;
  } else {
    RPMIS_DASSERT(head_[owner] == h);
    head_[owner] = e.next;
  }
  if (e.next != kNilHalf) half_[e.next].prev = e.prev;
}

void AdjacencyGraph::PushFront(Vertex owner, uint32_t h) {
  half_[h].prev = kNilHalf;
  half_[h].next = head_[owner];
  if (head_[owner] != kNilHalf) half_[head_[owner]].prev = h;
  head_[owner] = h;
}

std::vector<Vertex> AdjacencyGraph::NeighborsOf(Vertex v) const {
  std::vector<Vertex> out;
  out.reserve(degree_[v]);
  ForEachNeighbor(v, [&](Vertex w) { out.push_back(w); });
  return out;
}

bool AdjacencyGraph::HasEdge(Vertex u, Vertex v) const {
  if (degree_[u] > degree_[v]) std::swap(u, v);
  for (uint32_t h = head_[u]; h != kNilHalf; h = half_[h].next) {
    if (half_[h].to == v) return true;
  }
  return false;
}

void AdjacencyGraph::RemoveVertex(Vertex v, std::vector<Vertex>* touched) {
  RPMIS_ASSERT(IsAlive(v));
  for (uint32_t h = head_[v]; h != kNilHalf; h = half_[h].next) {
    const Vertex w = half_[h].to;
    Unlink(w, half_[h].twin);
    --degree_[w];
    --alive_edges_;
    if (touched != nullptr) touched->push_back(w);
  }
  head_[v] = kNilHalf;
  degree_[v] = 0;
  alive_[v] = 0;
}

void AdjacencyGraph::ContractInto(Vertex v, Vertex w, std::vector<Vertex>* touched) {
  RPMIS_ASSERT(IsAlive(v) && IsAlive(w) && v != w);
  // Mark w's current neighbourhood for duplicate detection.
  scratch_.Clear();
  ForEachNeighbor(w, [&](Vertex x) { scratch_.Insert(x); });

  uint32_t h = head_[v];
  head_[v] = kNilHalf;
  while (h != kNilHalf) {
    const uint32_t next = half_[h].next;
    const Vertex x = half_[h].to;
    if (x == w) {
      // The edge (v, w) disappears with the contraction.
      Unlink(w, half_[h].twin);
      --degree_[w];
      --alive_edges_;
    } else if (scratch_.Contains(x)) {
      // (w, x) already exists: the moved edge would be parallel; drop it.
      Unlink(x, half_[h].twin);
      --degree_[x];
      --alive_edges_;
      if (touched != nullptr) touched->push_back(x);
    } else {
      // Re-point (x, v) to (x, w) and thread (v, x)'s half into w's list.
      half_[half_[h].twin].to = w;
      PushFront(w, h);
      ++degree_[w];
      scratch_.Insert(x);
    }
    h = next;
  }
  degree_[v] = 0;
  alive_[v] = 0;
  if (touched != nullptr) touched->push_back(w);
}

}  // namespace rpmis
