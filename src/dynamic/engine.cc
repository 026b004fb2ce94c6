#include "dynamic/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mis/linear_time.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "support/timer.h"

namespace rpmis {

namespace {

// Local repair handles cones of up to max(kMinCone, kConeFraction * alive)
// vertices; a larger cone takes the full re-solve.
constexpr uint64_t kMinCone = 512;
constexpr double kConeFraction = 0.02;

[[noreturn]] void ThrowBadVertex(Vertex v, Vertex n) {
  throw std::out_of_range("dynamic update names vertex " + std::to_string(v) +
                          " outside the universe [0, " + std::to_string(n) +
                          ")");
}

}  // namespace

DynamicMisEngine::OverlayGraph::OverlayGraph(const Graph& base)
    : base_(base),
      deleted_(2 * base.NumEdges(), false),
      head_(base.NumVertices(), kNil),
      degree_(base.NumVertices()),
      alive_(base.NumVertices(), 1),
      alive_count_(base.NumVertices()),
      alive_edges_(base.NumEdges()) {
  for (Vertex v = 0; v < base.NumVertices(); ++v) degree_[v] = base.Degree(v);
}

uint64_t DynamicMisEngine::OverlayGraph::FindBaseSlot(Vertex v, Vertex w) const {
  if (v >= base_.NumVertices()) return kNoSlot;
  const std::span<const Vertex> nb = base_.Neighbors(v);
  const auto it = std::lower_bound(nb.begin(), nb.end(), w);
  if (it == nb.end() || *it != w) return kNoSlot;
  return base_.EdgeBegin(v) + static_cast<uint64_t>(it - nb.begin());
}

void DynamicMisEngine::OverlayGraph::PushInserted(Vertex v, Vertex w) {
  uint32_t h = free_;
  if (h != kNil) {
    free_ = pool_[h].next;
  } else {
    RPMIS_ASSERT(pool_.size() < kNil);
    h = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[h] = {w, head_[v]};
  head_[v] = h;
}

bool DynamicMisEngine::OverlayGraph::EraseInserted(Vertex v, Vertex w) {
  for (uint32_t* link = &head_[v]; *link != kNil; link = &pool_[*link].next) {
    const uint32_t h = *link;
    if (pool_[h].to != w) continue;
    *link = pool_[h].next;
    pool_[h].next = free_;
    free_ = h;
    return true;
  }
  return false;
}

bool DynamicMisEngine::OverlayGraph::HasEdge(Vertex u, Vertex v) const {
  if (!alive_[u] || !alive_[v]) return false;
  if (degree_[u] > degree_[v]) std::swap(u, v);
  const uint64_t e = FindBaseSlot(u, v);
  if (e != kNoSlot && !deleted_[e]) return true;
  for (uint32_t h = head_[u]; h != kNil; h = pool_[h].next) {
    if (pool_[h].to == v) return true;
  }
  return false;
}

bool DynamicMisEngine::OverlayGraph::InsertEdge(Vertex u, Vertex v) {
  RPMIS_ASSERT(u < NumVertices() && v < NumVertices() && u != v);
  for (Vertex x : {u, v}) {
    if (alive_[x]) continue;
    // x's own slots were flagged when it died; the slots of its former
    // neighbours that name x would come back with it, so flag them now.
    if (x < base_.NumVertices()) {
      for (Vertex w : base_.Neighbors(x)) deleted_[FindBaseSlot(w, x)] = true;
    }
    alive_[x] = 1;
    ++alive_count_;
  }
  if (HasEdge(u, v)) return false;
  // A deleted base slot stays deleted: the edge re-enters through the
  // overlay, so it is iterated first, as the newest insertion.
  PushInserted(u, v);
  PushInserted(v, u);
  ++degree_[u];
  ++degree_[v];
  ++alive_edges_;
  return true;
}

bool DynamicMisEngine::OverlayGraph::RemoveEdge(Vertex u, Vertex v) {
  RPMIS_ASSERT(u < NumVertices() && v < NumVertices() && u != v);
  if (!alive_[u] || !alive_[v]) return false;
  const uint64_t e = FindBaseSlot(u, v);
  if (e != kNoSlot && !deleted_[e]) {
    deleted_[e] = true;
    deleted_[FindBaseSlot(v, u)] = true;
  } else if (EraseInserted(u, v)) {
    EraseInserted(v, u);
  } else {
    return false;
  }
  --degree_[u];
  --degree_[v];
  --alive_edges_;
  return true;
}

Vertex DynamicMisEngine::OverlayGraph::AddVertex() {
  const Vertex v = NumVertices();
  head_.push_back(kNil);
  degree_.push_back(0);
  alive_.push_back(1);
  ++alive_count_;
  return v;
}

void DynamicMisEngine::OverlayGraph::RemoveVertex(Vertex v) {
  RPMIS_ASSERT(IsAlive(v));
  // The mirror slots stay unflagged: their target is dead now, which
  // retires them without a search per neighbour.
  if (v < base_.NumVertices()) {
    for (uint64_t e = base_.EdgeBegin(v); e < base_.EdgeEnd(v); ++e) {
      const Vertex w = base_.EdgeTarget(e);
      if (deleted_[e] || !alive_[w]) continue;
      deleted_[e] = true;
      --degree_[w];
    }
  }
  while (head_[v] != kNil) {
    const Vertex w = pool_[head_[v]].to;
    EraseInserted(v, w);
    EraseInserted(w, v);
    --degree_[w];
  }
  alive_edges_ -= degree_[v];
  degree_[v] = 0;
  alive_[v] = 0;
  --alive_count_;
}

Graph DynamicMisEngine::OverlayGraph::Merge() const {
  const Vertex n = NumVertices();
  std::vector<uint64_t> offsets(n + 1, 0);
  for (Vertex v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree_[v];
  std::vector<Vertex> neighbors(offsets[n]);
  std::vector<Vertex> inserted;
  for (Vertex v = 0; v < n; ++v) {
    if (degree_[v] == 0) continue;
    Vertex* out = neighbors.data() + offsets[v];
    const std::span<const Vertex> base =
        v < base_.NumVertices() ? base_.Neighbors(v) : std::span<const Vertex>();
    const uint64_t first = v < base_.NumVertices() ? base_.EdgeBegin(v) : 0;
    if (head_[v] == kNil && base.size() == degree_[v]) {
      std::copy(base.begin(), base.end(), out);  // no slot deleted
      continue;
    }
    // Both sides ascending: the live base slice and the sorted overlay.
    inserted.clear();
    for (uint32_t h = head_[v]; h != kNil; h = pool_[h].next) {
      inserted.push_back(pool_[h].to);
    }
    std::sort(inserted.begin(), inserted.end());
    auto ins = inserted.begin();
    for (size_t i = 0; i < base.size(); ++i) {
      if (deleted_[first + i] || !alive_[base[i]]) continue;
      while (ins != inserted.end() && *ins < base[i]) *out++ = *ins++;
      *out++ = base[i];
    }
    out = std::copy(ins, inserted.end(), out);
    RPMIS_DASSERT(out == neighbors.data() + offsets[v + 1]);
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

void DynamicMisEngine::OverlayGraph::Rebase(Graph merged) {
  RPMIS_ASSERT(merged.NumVertices() == NumVertices() &&
               merged.NumEdges() == alive_edges_);
  base_ = std::move(merged);
  deleted_.assign(2 * base_.NumEdges(), false);
  head_.assign(NumVertices(), kNil);
  pool_.clear();
  free_ = kNil;
}

DynamicMisEngine::DynamicMisEngine(const Graph& g, const DynamicPolicy& policy)
    : policy_(policy), adj_(g) {
  LinearTimeOptions opt;
  opt.peeled = &peeled_;
  const MisSolution sol = RunLinearTime(g, nullptr, opt);

  in_set_ = sol.in_set;
  size_ = sol.size;
  upper_ = sol.UpperBound();
  base_gap_ = sol.residual_peeled;
  in_count_.assign(g.NumVertices(), 0);
  seen_.Resize(g.NumVertices());
  RebuildInCounts();
}

UpdateOutcome DynamicMisEngine::Apply(const GraphUpdate& update) {
  Timer timer;
  UpdateOutcome out;
  const int64_t size_before = static_cast<int64_t>(size_);
  switch (update.kind) {
    case UpdateKind::kInsertEdge:
      ApplyInsertEdge(update.u, update.v, out);
      break;
    case UpdateKind::kDeleteEdge:
      ApplyDeleteEdge(update.u, update.v, out);
      break;
    case UpdateKind::kInsertVertex:
      ApplyInsertVertex(update.neighbors, out);
      break;
    case UpdateKind::kDeleteVertex:
      ApplyDeleteVertex(update.u, out);
      break;
  }
  Repair(out);
  out.size_delta = static_cast<int64_t>(size_) - size_before;
  stats_.latency.Record(timer.Seconds());
  return out;
}

void DynamicMisEngine::ApplyUpdates(std::span<const GraphUpdate> updates) {
  obs::TraceSpan span(obs::Trace(), "dynamic.apply_updates");
  for (const GraphUpdate& u : updates) Apply(u);
}

void DynamicMisEngine::ApplyInsertEdge(Vertex u, Vertex v, UpdateOutcome& out) {
  const Vertex n = NumVertices();
  if (u >= n) ThrowBadVertex(u, n);
  if (v >= n) ThrowBadVertex(v, n);
  if (u == v) {
    throw std::invalid_argument("dynamic InsertEdge: self-loop at vertex " +
                                std::to_string(u));
  }
  ++stats_.insert_edges;
  const bool u_was_dead = !adj_.IsAlive(u);
  const bool v_was_dead = !adj_.IsAlive(v);
  if (!adj_.InsertEdge(u, v)) {  // revives dead endpoints either way
    ++stats_.noops;
    return;
  }
  if (in_set_[u]) ++in_count_[v];
  if (in_set_[v]) ++in_count_[u];
  if (in_set_[u] && in_set_[v]) {
    const Vertex evictee = ChooseEviction(u, v);
    ++stats_.evictions;
    Evict(evictee);
  }
  // A revived endpoint re-enters as an isolated-plus-one-edge vertex with
  // no exclusion reasons unless the new edge supplies one.
  if (u_was_dead && IsFree(u)) frontier_.push_back(u);
  if (v_was_dead && IsFree(v)) frontier_.push_back(v);
  // Reviving one or both endpoints adds a vertex, or two adjacent ones:
  // α rises by at most one. Joining two alive vertices never raises it.
  if (u_was_dead || v_was_dead) ++upper_;
  (void)out;
}

void DynamicMisEngine::ApplyDeleteEdge(Vertex u, Vertex v, UpdateOutcome& out) {
  const Vertex n = NumVertices();
  if (u >= n) ThrowBadVertex(u, n);
  if (v >= n) ThrowBadVertex(v, n);
  ++stats_.delete_edges;
  if (u == v || !adj_.RemoveEdge(u, v)) {
    ++stats_.noops;
    return;
  }
  // Removing an edge can raise α by at most one.
  ++upper_;
  if (in_set_[u]) {
    if (--in_count_[v] == 0) frontier_.push_back(v);
  }
  if (in_set_[v]) {
    if (--in_count_[u] == 0) frontier_.push_back(u);
  }
  (void)out;
}

void DynamicMisEngine::ApplyInsertVertex(std::span<const Vertex> neighbors,
                                         UpdateOutcome& out) {
  const Vertex n = NumVertices();
  for (Vertex w : neighbors) {
    if (w >= n) ThrowBadVertex(w, n);
  }
  ++stats_.insert_vertices;
  const Vertex id = adj_.AddVertex();
  GrowUniverse();
  uint64_t revived = 0;
  for (Vertex w : neighbors) {
    const bool w_was_dead = !adj_.IsAlive(w);
    if (!adj_.InsertEdge(id, w)) continue;  // duplicate neighbour entry
    if (in_set_[w]) ++in_count_[id];
    if (w_was_dead) {
      ++revived;
      if (IsFree(w)) frontier_.push_back(w);
    }
  }
  // The revived neighbours are adjacent only to the new vertex, so α can
  // rise by all of them at once; with none revived, by the vertex alone.
  upper_ += std::max<uint64_t>(1, revived);
  if (IsFree(id)) frontier_.push_back(id);
  (void)out;
}

void DynamicMisEngine::ApplyDeleteVertex(Vertex v, UpdateOutcome& out) {
  const Vertex n = NumVertices();
  if (v >= n) ThrowBadVertex(v, n);
  ++stats_.delete_vertices;
  if (!adj_.IsAlive(v)) {
    ++stats_.noops;
    return;
  }
  // Deleting a set member frees the neighbours it was blocking (not
  // counted as an eviction — that counter is for insert-edge conflicts).
  if (in_set_[v]) Evict(v);
  adj_.RemoveVertex(v);
  in_count_[v] = 0;  // dead vertices keep no exclusion state
  // α(G - v) <= α(G): upper_ stays valid.
  (void)out;
}

Vertex DynamicMisEngine::ChooseEviction(Vertex u, Vertex v) const {
  if (peeled_[u] != peeled_[v]) return peeled_[u] ? u : v;
  const uint32_t du = adj_.Degree(u);
  const uint32_t dv = adj_.Degree(v);
  if (du != dv) return du > dv ? u : v;
  return u > v ? u : v;
}

void DynamicMisEngine::Include(Vertex v) {
  RPMIS_DASSERT(IsFree(v));
  in_set_[v] = 1;
  ++size_;
  adj_.ForEachNeighbor(v, [&](Vertex w) { ++in_count_[w]; });
}

void DynamicMisEngine::Evict(Vertex v) {
  RPMIS_DASSERT(in_set_[v] != 0);
  in_set_[v] = 0;
  --size_;
  adj_.ForEachNeighbor(v, [&](Vertex w) {
    if (--in_count_[w] == 0 && in_set_[w] == 0) frontier_.push_back(w);
  });
}

void DynamicMisEngine::Repair(UpdateOutcome& out) {
  if (!frontier_.empty()) {
    // Dedup the frontier and drop entries repaired or re-blocked since
    // they were queued.
    std::vector<Vertex> free;
    seen_.Clear();
    for (Vertex v : frontier_) {
      if (!seen_.Contains(v) && IsFree(v)) {
        seen_.Insert(v);
        free.push_back(v);
      }
    }
    frontier_.clear();

    out.cone = static_cast<uint32_t>(free.size());
    stats_.cone_vertices += free.size();
    stats_.max_cone = std::max<uint64_t>(stats_.max_cone, free.size());

    const double alive = static_cast<double>(adj_.NumAliveVertices());
    const uint64_t budget =
        std::max(kMinCone, static_cast<uint64_t>(kConeFraction * alive));
    if (free.size() > budget) {
      // The re-solve resets the gap, so the drift gate has nothing to do.
      Resolve();
      out.full_resolve = true;
      ++stats_.component_fallbacks;
      return;
    }
    RepairLocally(free);
  }

  // The drift gate runs even with an empty cone: evictions shrink the set
  // without freeing anyone when the evictee's neighbours all have other
  // IN neighbours.
  const uint64_t slack = std::max<uint64_t>(
      policy_.min_slack,
      static_cast<uint64_t>(policy_.max_gap * static_cast<double>(upper_)));
  if (upper_ - size_ > base_gap_ + slack) {
    Resolve();
    out.full_resolve = true;
  }
}

void DynamicMisEngine::RepairLocally(std::vector<Vertex>& free) {
  // Local reducing-peeling over the free cone. Only free vertices are
  // undecided; including one blocks its free neighbours, so the cone only
  // shrinks and free-degrees only decrease. Exact local rules first
  // (degree zero/one and the degree-two isolation case of Lemma 4.1),
  // min-free-degree greedy when no exact rule applies.
  const auto free_degree = [&](Vertex v) {
    uint32_t fd = 0;
    adj_.ForEachNeighbor(v, [&](Vertex w) { fd += IsFree(w) ? 1 : 0; });
    return fd;
  };

  while (true) {
    bool progress = false;
    size_t kept = 0;
    for (size_t i = 0; i < free.size(); ++i) {
      const Vertex v = free[i];
      if (!IsFree(v)) continue;  // blocked by an earlier include
      const uint32_t fd = free_degree(v);
      bool include = fd <= 1;
      if (!include && fd == 2) {
        // Isolation: v's two free neighbours are adjacent (triangle), so
        // taking v is never worse than taking either of them.
        Vertex a = kInvalidVertex, b = kInvalidVertex;
        adj_.ForEachNeighbor(v, [&](Vertex w) {
          if (!IsFree(w)) return;
          (a == kInvalidVertex ? a : b) = w;
        });
        include = adj_.HasEdge(a, b);
      }
      if (include) {
        Include(v);
        ++stats_.included_by_reduction;
        progress = true;
      } else {
        free[kept++] = v;
      }
    }
    free.resize(kept);
    if (free.empty()) return;
    if (progress) continue;

    // No exact rule fired anywhere: greedily include the min-free-degree
    // vertex (lowest id on ties — deterministic).
    Vertex best = free[0];
    uint32_t best_fd = free_degree(best);
    for (size_t i = 1; i < free.size(); ++i) {
      const uint32_t fd = free_degree(free[i]);
      if (fd < best_fd || (fd == best_fd && free[i] < best)) {
        best = free[i];
        best_fd = fd;
      }
    }
    Include(best);
    ++stats_.included_greedy;
  }
}

void DynamicMisEngine::ForceResolve() { Resolve(); }

void DynamicMisEngine::Resolve() {
  obs::TraceSpan span(obs::Trace(), "dynamic.full_resolve");
  ++stats_.full_resolves;
  Graph g;
  {
    obs::TraceSpan merge(obs::Trace(), "dynamic.snapshot");
    g = adj_.Merge();
  }

  LinearTimeOptions opt;
  opt.peeled = &peeled_;
  MisSolution sol = RunLinearTime(g, nullptr, opt);

  // Dead ids appear isolated in the snapshot, so the solver includes each
  // of them (degree-zero rule) and they inflate both size and the bound
  // by exactly the dead count. Mask them back out.
  uint64_t dead = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    if (!adj_.IsAlive(v)) {
      sol.in_set[v] = 0;
      ++dead;
    }
  }
  in_set_ = std::move(sol.in_set);
  size_ = sol.size - dead;
  upper_ = sol.size + sol.residual_peeled - dead;
  base_gap_ = upper_ - size_;
  frontier_.clear();
  adj_.Rebase(std::move(g));
  RebuildInCounts();
}

Graph DynamicMisEngine::CurrentGraph() const { return adj_.Merge(); }

void DynamicMisEngine::GrowUniverse() {
  const Vertex n = adj_.NumVertices();
  if (in_set_.size() >= n) return;
  in_set_.resize(n, 0);
  in_count_.resize(n, 0);
  peeled_.resize(n, 0);
  seen_.EnsureUniverse(n);
}

void DynamicMisEngine::RebuildInCounts() {
  obs::TraceSpan span(obs::Trace(), "dynamic.in_counts");
  const Graph& g = adj_.Base();
  RPMIS_DASSERT(g.NumVertices() == NumVertices() &&
                g.NumEdges() == NumAliveEdges());
  std::fill(in_count_.begin(), in_count_.end(), 0);
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    if (!in_set_[v]) continue;
    for (Vertex w : g.Neighbors(v)) ++in_count_[w];
  }
}

bool DynamicMisEngine::CheckInvariants(std::string* why) const {
  const auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  const Vertex n = NumVertices();
  if (in_set_.size() != n || in_count_.size() != n || peeled_.size() != n) {
    return fail("per-vertex array sizes disagree with the universe");
  }
  uint64_t counted = 0;
  for (Vertex v = 0; v < n; ++v) {
    const bool alive = adj_.IsAlive(v);
    if (in_set_[v]) {
      ++counted;
      if (!alive) {
        return fail("dead vertex " + std::to_string(v) + " is in the set");
      }
    }
    uint32_t expect = 0;
    bool conflict = false;
    adj_.ForEachNeighbor(v, [&](Vertex w) {
      expect += in_set_[w] ? 1 : 0;
      conflict |= (in_set_[v] && in_set_[w]);
    });
    if (conflict) {
      return fail("vertex " + std::to_string(v) +
                  " and a neighbour are both selected");
    }
    if (in_count_[v] != expect) {
      return fail("in_count[" + std::to_string(v) + "] is " +
                  std::to_string(in_count_[v]) + ", expected " +
                  std::to_string(expect));
    }
    if (alive && !in_set_[v] && expect == 0) {
      return fail("vertex " + std::to_string(v) +
                  " is free (not maximal) outside a repair");
    }
  }
  if (counted != size_) {
    return fail("size_ is " + std::to_string(size_) + " but " +
                std::to_string(counted) + " vertices are selected");
  }
  if (upper_ < size_) {
    return fail("maintained upper bound " + std::to_string(upper_) +
                " is below the set size " + std::to_string(size_));
  }
  return true;
}

void DynamicMisEngine::PublishMetrics(obs::MetricsRegistry& metrics) const {
  metrics.Add("dynamic.updates.insert_edge", stats_.insert_edges);
  metrics.Add("dynamic.updates.delete_edge", stats_.delete_edges);
  metrics.Add("dynamic.updates.insert_vertex", stats_.insert_vertices);
  metrics.Add("dynamic.updates.delete_vertex", stats_.delete_vertices);
  metrics.Add("dynamic.updates.noop", stats_.noops);
  metrics.Add("dynamic.cone.vertices", stats_.cone_vertices);
  metrics.Add("dynamic.cone.max", stats_.max_cone);
  metrics.Add("dynamic.repair.included_by_reduction",
              stats_.included_by_reduction);
  metrics.Add("dynamic.repair.included_greedy", stats_.included_greedy);
  metrics.Add("dynamic.repair.evictions", stats_.evictions);
  metrics.Add("dynamic.fallback.component", stats_.component_fallbacks);
  metrics.Add("dynamic.fallback.full_resolve", stats_.full_resolves);
  metrics.Set("dynamic.set.size", static_cast<double>(size_));
  metrics.Set("dynamic.set.upper_bound", static_cast<double>(upper_));
  stats_.latency.PublishTo(metrics, "dynamic.update_latency");
}

}  // namespace rpmis
