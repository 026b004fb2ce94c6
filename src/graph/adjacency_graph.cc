#include "graph/adjacency_graph.h"

#include <utility>

namespace rpmis {

AdjacencyGraph::AdjacencyGraph(const Graph& g)
    : head_(g.NumVertices(), kNilHalf),
      degree_(g.NumVertices(), 0),
      alive_(g.NumVertices(), 1),
      alive_count_(g.NumVertices()),
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
    free_halves_.push_back(h);
    free_halves_.push_back(half_[h].twin);
    if (touched != nullptr) touched->push_back(w);
  }
  head_[v] = kNilHalf;
  degree_[v] = 0;
  alive_[v] = 0;
  --alive_count_;
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
      free_halves_.push_back(h);
      free_halves_.push_back(half_[h].twin);
    } else if (scratch_.Contains(x)) {
      // (w, x) already exists: the moved edge would be parallel; drop it.
      Unlink(x, half_[h].twin);
      --degree_[x];
      --alive_edges_;
      free_halves_.push_back(h);
      free_halves_.push_back(half_[h].twin);
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
  --alive_count_;
  if (touched != nullptr) touched->push_back(w);
}

uint32_t AdjacencyGraph::AllocHalf() {
  if (!free_halves_.empty()) {
    const uint32_t h = free_halves_.back();
    free_halves_.pop_back();
    return h;
  }
  half_.push_back({});
  return static_cast<uint32_t>(half_.size() - 1);
}

bool AdjacencyGraph::InsertEdge(Vertex u, Vertex v) {
  RPMIS_ASSERT(u < NumVertices() && v < NumVertices() && u != v);
  ReviveVertex(u);
  ReviveVertex(v);
  if (HasEdge(u, v)) return false;
  const uint32_t hu = AllocHalf();
  const uint32_t hv = AllocHalf();
  half_[hu] = {v, hv, kNilHalf, kNilHalf};
  half_[hv] = {u, hu, kNilHalf, kNilHalf};
  PushFront(u, hu);
  PushFront(v, hv);
  ++degree_[u];
  ++degree_[v];
  ++alive_edges_;
  return true;
}

bool AdjacencyGraph::RemoveEdge(Vertex u, Vertex v) {
  RPMIS_ASSERT(u < NumVertices() && v < NumVertices() && u != v);
  if (!IsAlive(u) || !IsAlive(v)) return false;
  if (degree_[u] > degree_[v]) std::swap(u, v);
  for (uint32_t h = head_[u]; h != kNilHalf; h = half_[h].next) {
    if (half_[h].to != v) continue;
    Unlink(u, h);
    Unlink(v, half_[h].twin);
    --degree_[u];
    --degree_[v];
    --alive_edges_;
    free_halves_.push_back(h);
    free_halves_.push_back(half_[h].twin);
    return true;
  }
  return false;
}

Vertex AdjacencyGraph::AddVertex() {
  const Vertex v = NumVertices();
  head_.push_back(kNilHalf);
  degree_.push_back(0);
  alive_.push_back(1);
  ++alive_count_;
  scratch_.EnsureUniverse(head_.size());
  return v;
}

void AdjacencyGraph::ReviveVertex(Vertex v) {
  RPMIS_ASSERT(v < NumVertices());
  if (IsAlive(v)) return;
  RPMIS_DASSERT(head_[v] == kNilHalf && degree_[v] == 0);
  alive_[v] = 1;
  ++alive_count_;
}

std::vector<Edge> AdjacencyGraph::CollectAliveEdges() const {
  std::vector<Edge> out;
  out.reserve(alive_edges_);
  for (Vertex v = 0; v < NumVertices(); ++v) {
    if (!IsAlive(v)) continue;
    ForEachNeighbor(v, [&](Vertex w) {
      if (v < w) out.emplace_back(v, w);
    });
  }
  return out;
}

}  // namespace rpmis
