#include "mis/near_linear.h"

#include <algorithm>
#include <numeric>

#include "ds/bucket_queue.h"
#include "graph/algorithms.h"
#include "mis/compaction.h"
#include "mis/kernel_capture.h"
#include "mis/lp_reduction.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "support/fast_set.h"

namespace rpmis {

namespace {

// The exact dominance predicate of the one-pass prepass: true iff some
// alive neighbour v of u with d(v) <= d(u) satisfies N(v) \ {u} ⊆ N(u).
// Pure reader of (alive, deg); `mark` is caller-owned scratch.
bool DominatedBy(const Graph& g, const std::vector<uint8_t>& alive,
                 const std::vector<uint32_t>& deg, Vertex u, FastSet& mark) {
  mark.Clear();
  for (Vertex x : g.Neighbors(u)) {
    if (alive[x]) mark.Insert(x);
  }
  for (Vertex v : g.Neighbors(u)) {
    // v dominates u iff N(v) \ {u} ⊆ N(u); only candidates with
    // d(v) <= d(u) can succeed, which bounds the scan by min degrees.
    if (!alive[v] || deg[v] > deg[u]) continue;
    bool ok = true;
    for (Vertex w : g.Neighbors(v)) {
      if (w == u || !alive[w]) continue;
      if (!mark.Contains(w)) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

}  // namespace

uint64_t OnePassDominance(const Graph& g, std::vector<uint8_t>& alive,
                          std::vector<uint32_t>& deg,
                          std::vector<uint8_t>& in_set) {
  const Vertex n = g.NumVertices();
  // Count-sort vertices by decreasing initial degree: high-degree vertices
  // are the likely dominated ones and removing them shrinks Δ.
  const uint32_t max_deg = g.MaxDegree();
  std::vector<uint32_t> bucket(static_cast<size_t>(max_deg) + 2, 0);
  for (Vertex v = 0; v < n; ++v) ++bucket[max_deg - g.Degree(v) + 1];
  for (size_t i = 1; i < bucket.size(); ++i) bucket[i] += bucket[i - 1];
  std::vector<Vertex> order(n);
  for (Vertex v = 0; v < n; ++v) order[bucket[max_deg - g.Degree(v)]++] = v;

  FastSet mark(n);
  uint64_t removed = 0;
  for (Vertex u : order) {
    if (!alive[u] || deg[u] == 0) continue;
    if (!DominatedBy(g, alive, deg, u, mark)) continue;
    ++removed;
    // Remove u: neighbours lose a degree, isolated ones join I.
    alive[u] = 0;
    for (Vertex x : g.Neighbors(u)) {
      if (!alive[x]) continue;
      if (--deg[x] == 0) in_set[x] = 1;
    }
  }
  return removed;
}

namespace {

// Directed-edge slot index into the flat adjacency array.
using Slot = uint32_t;
constexpr Slot kNoSlot = static_cast<Slot>(-1);

// The NearLinear main loop, operating on a compact kernel graph (the
// instance that remains after the exact prepasses). Membership, peel and
// deferred-path decisions are recorded directly in INPUT ids (via
// `to_orig_`), which lets the loop rebuild its own vertex universe mid-run
// (Compact) without post-hoc translation.
class NearLinearCore {
 public:
  NearLinearCore(const Graph& kg, std::vector<Vertex> kernel_to_orig,
                 MisSolution* sol, std::vector<uint8_t>* peeled_orig,
                 const CompactionOptions& copts)
      : sol_(sol),
        peeled_orig_(peeled_orig),
        n_(kg.NumVertices()),
        to_orig_(std::move(kernel_to_orig)),
        offsets_(kg.RawOffsets()),
        alive_(n_, 1),
        deg_(n_),
        mark_(n_),
        mark2_(n_),
        policy_(copts, n_) {
    const std::span<const Vertex> nbs = kg.RawNeighbors();
    adj_.assign(nbs.begin(), nbs.end());
    for (Vertex v = 0; v < n_; ++v) {
      deg_[v] = kg.Degree(v);
      if (deg_[v] > 0) ++active_;
      if (deg_[v] == 2) v2_.push_back(v);
    }
    delta_ = EdgeTriangleCounts(kg);
    rev_ = ReverseEdgeIndex(kg);
    // Initial dominated set: u dominates v  =>  v is dominated.
    for (Vertex u = 0; u < n_; ++u) {
      if (deg_[u] == 0) {
        sol_->in_set[to_orig_[u]] = 1;  // isolated kernel vertex (defensive;
        ++in_count_;                    // prepasses normally strip these)
        continue;
      }
      for (Slot e = Begin(u); e < End(u); ++e) {
        if (delta_[e] == deg_[u] - 1) dominated_.push_back(adj_[e]);
      }
    }
  }

  // Runs to completion.
  void Run(bool want_capture, KernelSnapshot* capture);

  /// Replays the deferred stack (partners are input-space ids).
  void ReplayDeferred() { ReplayDeferredStack(deferred_, sol_->in_set); }

 private:
  Slot Begin(Vertex v) const { return static_cast<Slot>(offsets_[v]); }
  Slot End(Vertex v) const { return static_cast<Slot>(offsets_[v + 1]); }

  // Rewires a's slot holding old_nb to new_nb; returns the slot.
  Slot Rewire(Vertex a, Vertex old_nb, Vertex new_nb) {
    for (Slot e = Begin(a); e < End(a); ++e) {
      if (adj_[e] == old_nb) {
        adj_[e] = new_nb;
        return e;
      }
    }
    RPMIS_ASSERT_MSG(false, "rewire target not found");
    return kNoSlot;
  }

  Vertex FirstAliveNeighbor(Vertex v) const {
    for (Slot e = Begin(v); e < End(v); ++e) {
      if (alive_[adj_[e]]) return adj_[e];
    }
    return kInvalidVertex;
  }

  Vertex OtherAliveNeighbor(Vertex v, Vertex exclude) const {
    for (Slot e = Begin(v); e < End(v); ++e) {
      const Vertex w = adj_[e];
      if (alive_[w] && w != exclude) return w;
    }
    return kInvalidVertex;
  }

  bool HasAliveEdge(Vertex a, Vertex b) const {
    if (deg_[a] > deg_[b]) std::swap(a, b);
    for (Slot e = Begin(a); e < End(a); ++e) {
      if (adj_[e] == b) return alive_[b] != 0;
    }
    return false;
  }

  // Screens every alive pair (v, x) incident to v for fresh dominance.
  void RescreenVertex(Vertex v) {
    if (!alive_[v]) return;
    for (Slot e = Begin(v); e < End(v); ++e) {
      const Vertex x = adj_[e];
      if (!alive_[x]) continue;
      if (deg_[v] >= 1 && delta_[e] == deg_[v] - 1) dominated_.push_back(x);
      if (deg_[x] >= 1 && delta_[e] == deg_[x] - 1) dominated_.push_back(v);
    }
  }

  void OnDegreeDecrease(Vertex w) {
    if (deg_[w] == 2) {
      v2_.push_back(w);
    } else if (deg_[w] == 0) {
      sol_->in_set[to_orig_[w]] = 1;
      ++in_count_;
      --active_;
    }
    // Degree-one vertices need no explicit worklist: such a vertex
    // dominates its remaining neighbour, which the rescreen pass enqueues.
  }

  // Deletes x, maintaining degrees, triangle counts and the dominated set.
  void DeleteVertex(Vertex x) {
    RPMIS_DASSERT(alive_[x]);
    alive_[x] = 0;
    if (deg_[x] > 0) --active_;
    // Pass A: collect alive neighbours, update degrees.
    scratch_nbrs_.clear();
    for (Slot e = Begin(x); e < End(x); ++e) {
      const Vertex v = adj_[e];
      if (!alive_[v]) continue;
      scratch_nbrs_.push_back(v);
      --deg_[v];
      OnDegreeDecrease(v);
    }
    // Pass B: every triangle (x, v, w) loses x; decrement δ on (v, w).
    mark_.Clear();
    for (Vertex v : scratch_nbrs_) mark_.Insert(v);
    for (Vertex v : scratch_nbrs_) {
      for (Slot e = Begin(v); e < End(v); ++e) {
        const Vertex w = adj_[e];
        if (alive_[w] && mark_.Contains(w)) {
          RPMIS_DASSERT(delta_[e] > 0);
          --delta_[e];  // the mirror decrements when the loop reaches w
        }
      }
    }
    // Pass C: neighbours lost a degree, so they may newly dominate; their
    // two-hop neighbours may newly be dominated (§5 discussion).
    for (Vertex v : scratch_nbrs_) RescreenVertex(v);
  }

  void DegreeTwoPathReduction(Vertex u);
  void ApplyDominance();
  void Compact(LazyMaxBucketQueue& peel_queue);

  // Progress-sample snapshot: O(live) edge recount, amortized by the
  // sampler stride. `in_count_` tracks vertices this core decided into I;
  // `in_base_` is what the prepasses had decided before the core started.
  void SampleProgress(obs::ProgressSampler* ps) {
    uint64_t deg_sum = 0;
    for (Vertex v = 0; v < n_; ++v) {
      if (alive_[v]) deg_sum += deg_[v];
    }
    obs::ProgressSample s;
    s.live_vertices = active_;
    s.live_edges = deg_sum / 2;
    s.solution_size = in_base_ + in_count_;
    // Crude in-flight bound: everything still live, deferred, or peeled
    // so far may yet join I (DESIGN.md §8).
    s.upper_bound =
        s.solution_size + active_ + deferred_.size() + sol_->rules.peels;
    s.label = "nearlinear.core";
    ps->Record(std::move(s));
  }

  MisSolution* sol_;
  std::vector<uint8_t>* peeled_orig_;
  Vertex n_;
  std::vector<Vertex> to_orig_;        // current id -> input id
  std::span<const uint64_t> offsets_;  // kernel CSR, then own_offsets_
  std::vector<uint64_t> own_offsets_;
  std::vector<Vertex> adj_;
  std::vector<uint32_t> delta_;
  std::vector<uint32_t> rev_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> deg_;
  std::vector<Vertex> v2_;
  std::vector<Vertex> dominated_;
  std::vector<DeferredDecision> deferred_;  // input-space ids
  std::vector<Vertex> scratch_nbrs_;
  FastSet mark_, mark2_;
  Vertex active_ = 0;  // # vertices with alive && deg > 0
  uint64_t in_base_ = 0;   // |I| decided before the core started
  uint64_t in_count_ = 0;  // vertices this core added to I
  CompactionPolicy policy_;
};

void NearLinearCore::ApplyDominance() {
  const Vertex u = dominated_.back();
  dominated_.pop_back();
  if (!alive_[u] || deg_[u] == 0) return;
  // Re-verify: u may no longer be dominated (mutual dominance, §A.3).
  for (Slot e = Begin(u); e < End(u); ++e) {
    const Vertex v = adj_[e];
    if (!alive_[v]) continue;
    if (delta_[e] == deg_[v] - 1) {
      // v dominates u: remove u.
      DeleteVertex(u);
      ++sol_->rules.dominance;
      return;
    }
  }
}

void NearLinearCore::DegreeTwoPathReduction(Vertex u) {
  Vertex start[2];
  start[0] = FirstAliveNeighbor(u);
  start[1] = OtherAliveNeighbor(u, start[0]);
  RPMIS_DASSERT(start[0] != kInvalidVertex && start[1] != kInvalidVertex);
  std::vector<Vertex> side[2];
  bool is_cycle = false;
  Vertex attach[2] = {kInvalidVertex, kInvalidVertex};
  for (int dir = 0; dir < 2 && !is_cycle; ++dir) {
    Vertex prev = u;
    Vertex cur = start[dir];
    while (deg_[cur] == 2) {
      if (cur == u) {
        is_cycle = true;
        break;
      }
      side[dir].push_back(cur);
      const Vertex next = OtherAliveNeighbor(cur, prev);
      RPMIS_DASSERT(next != kInvalidVertex);
      prev = cur;
      cur = next;
    }
    if (!is_cycle) attach[dir] = cur;
  }

  if (is_cycle) {
    ++sol_->rules.degree_two_path;
    DeleteVertex(u);
    return;
  }

  std::vector<Vertex> path;
  path.reserve(side[0].size() + side[1].size() + 1);
  for (size_t i = side[1].size(); i-- > 0;) path.push_back(side[1][i]);
  path.push_back(u);
  path.insert(path.end(), side[0].begin(), side[0].end());
  const Vertex v = attach[1];
  const Vertex w = attach[0];
  const size_t l = path.size();

  if (v == w) {
    ++sol_->rules.degree_two_path;  // Case 1
    DeleteVertex(v);
    return;
  }
  const bool vw_edge = HasAliveEdge(v, w);
  if (l % 2 == 1) {
    if (vw_edge) {
      ++sol_->rules.degree_two_path;  // Case 2
      DeleteVertex(v);
      if (alive_[w]) DeleteVertex(w);
      return;
    }
    if (l == 1) return;  // not applicable (Appendix A.2); checked once
    // Case 3: keep v_1, drop v_2..v_l, rewire (v_1, w) with δ = 0.
    ++sol_->rules.degree_two_path;
    for (size_t i = l; i-- > 1;) {
      deferred_.push_back({to_orig_[path[i]], to_orig_[path[i - 1]],
                           i + 1 < l ? to_orig_[path[i + 1]] : to_orig_[w]});
    }
    for (size_t i = 1; i < l; ++i) {
      alive_[path[i]] = 0;
      deg_[path[i]] = 0;
      --active_;
    }
    const Slot e1 = Rewire(path[0], path[1], w);
    const Slot e2 = Rewire(w, path[l - 1], path[0]);
    delta_[e1] = 0;
    delta_[e2] = 0;
    rev_[e1] = e2;
    rev_[e2] = e1;
    // Degrees of v_1 and w unchanged; no dominance can newly arise
    // (both endpoints of the fresh edge keep δ = 0 < deg - 1).
    return;
  }
  // Even path: drop all of it.
  ++sol_->rules.degree_two_path;
  for (size_t i = l; i-- > 0;) {
    deferred_.push_back({to_orig_[path[i]],
                         i > 0 ? to_orig_[path[i - 1]] : to_orig_[v],
                         i + 1 < l ? to_orig_[path[i + 1]] : to_orig_[w]});
  }
  for (size_t i = 0; i < l; ++i) {
    alive_[path[i]] = 0;
    deg_[path[i]] = 0;
    --active_;
  }
  if (vw_edge) {
    // Case 4: v and w lose one degree; triangle counts are untouched, so
    // only their own "dominates a neighbour" status can flip.
    for (Vertex x : {v, w}) {
      --deg_[x];
      OnDegreeDecrease(x);
    }
    RescreenVertex(v);
    RescreenVertex(w);
  } else {
    // Case 5: rewire (v, w); degrees unchanged; every common neighbour x
    // gains the triangles (x, v, w), so δ(x,v) and δ(x,w) grow by one.
    const Slot e1 = Rewire(v, path[0], w);
    const Slot e2 = Rewire(w, path[l - 1], v);
    rev_[e1] = e2;
    rev_[e2] = e1;
    mark_.Clear();
    for (Slot e = Begin(w); e < End(w); ++e) {
      if (alive_[adj_[e]]) mark_.Insert(adj_[e]);
    }
    uint32_t common = 0;
    mark2_.Clear();
    for (Slot e = Begin(v); e < End(v); ++e) {
      const Vertex x = adj_[e];
      if (x == w || !alive_[x] || !mark_.Contains(x)) continue;
      ++common;
      ++delta_[e];
      ++delta_[rev_[e]];
      mark2_.Insert(x);
    }
    for (Slot e = Begin(w); e < End(w); ++e) {
      const Vertex x = adj_[e];
      if (alive_[x] && mark2_.Contains(x)) {
        ++delta_[e];
        ++delta_[rev_[e]];
      }
    }
    delta_[e1] = common;
    delta_[e2] = common;
    RescreenVertex(v);
    RescreenVertex(w);
  }
}

// Rebuilds every per-vertex and per-slot structure over the alive,
// still-undecided subgraph. The renaming is monotone and per-vertex slot
// order is preserved, so every later scan (first-alive-neighbour walks,
// rewire lookups, a < b edge enumerations) sees the same sequence as
// without compaction — the run is byte-identical either way.
void NearLinearCore::Compact(LazyMaxBucketQueue& peel_queue) {
  obs::TraceSpan span(obs::Trace(), "nearlinear.compact");
  std::vector<uint8_t> keep(n_);
  for (Vertex u = 0; u < n_; ++u) keep[u] = alive_[u] && deg_[u] > 0;
  VertexRenaming ren = BuildRenaming(keep);
  const Vertex new_n = static_cast<Vertex>(ren.kept.size());
  RPMIS_DASSERT(new_n == active_);
  std::vector<uint64_t> new_offsets;
  std::vector<Vertex> new_adj;
  std::vector<uint32_t> slot_map;
  CompactCsr(ren, offsets_, adj_, &new_offsets, &new_adj, &slot_map,
             &sol_->compaction);
  // A slot survives iff its owner and target both survive; its reverse
  // slot has the same endpoints, so it survives too and the rev links can
  // be rebuilt by composition with the slot map.
  std::vector<uint32_t> new_delta(new_adj.size());
  std::vector<uint32_t> new_rev(new_adj.size());
  for (Vertex i = 0; i < new_n; ++i) {
    const Vertex v = ren.kept[i];
    for (uint64_t s = offsets_[v]; s < offsets_[v + 1]; ++s) {
      if (ren.to_new[adj_[s]] == kInvalidVertex) continue;
      new_delta[slot_map[s]] = delta_[s];
      new_rev[slot_map[s]] = slot_map[rev_[s]];
    }
  }
  own_offsets_ = std::move(new_offsets);
  offsets_ = own_offsets_;
  adj_ = std::move(new_adj);
  delta_ = std::move(new_delta);
  rev_ = std::move(new_rev);
  std::vector<uint32_t> new_deg(new_n);
  for (Vertex i = 0; i < new_n; ++i) new_deg[i] = deg_[ren.kept[i]];
  deg_ = std::move(new_deg);
  alive_.assign(new_n, 1);
  ComposeToOrig(ren, &to_orig_);
  RemapWorklist(ren, &v2_);
  RemapWorklist(ren, &dominated_);
  peel_queue.Compact(new_n, ren.to_new);
  mark_.Resize(new_n);
  mark2_.Resize(new_n);
  n_ = new_n;
  policy_.NoteRebuild(new_n);
}

void NearLinearCore::Run(bool want_capture, KernelSnapshot* capture) {
  obs::TraceSpan core_span(obs::Trace(), "nearlinear.core");
  if (obs::Progress() != nullptr) {
    // Baseline |I| for progress samples: prepass decisions, minus what the
    // constructor already attributed to this core.
    uint64_t total = 0;
    for (uint8_t f : sol_->in_set) total += f;
    in_base_ = total - in_count_;
  }
  std::vector<uint32_t> keys(deg_.begin(), deg_.end());
  LazyMaxBucketQueue peel_queue(keys);
  bool peeled_yet = false;

  auto capture_now = [&]() {
    if (!want_capture) return;
    // Translate the kernel-space state into input ids and snapshot.
    const Vertex n_orig = static_cast<Vertex>(sol_->in_set.size());
    std::vector<uint8_t> alive_o(n_orig, 0);
    std::vector<uint32_t> deg_o(n_orig, 0);
    for (Vertex k = 0; k < n_; ++k) {
      const Vertex o = to_orig_[k];
      alive_o[o] = alive_[k];
      deg_o[o] = deg_[k];
    }
    std::vector<Edge> edges;
    for (Vertex a = 0; a < n_; ++a) {
      if (!alive_[a] || deg_[a] == 0) continue;
      for (Slot e = Begin(a); e < End(a); ++e) {
        const Vertex b = adj_[e];
        if (a < b && alive_[b] && deg_[b] > 0) {
          edges.emplace_back(to_orig_[a], to_orig_[b]);
        }
      }
    }
    internal::BuildKernelSnapshot(alive_o, deg_o, sol_->in_set, edges,
                                  deferred_, capture);
  };

  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      SampleProgress(ps);
    }
    if (policy_.ShouldCompact(active_)) Compact(peel_queue);
    if (!v2_.empty()) {
      const Vertex u = v2_.back();
      v2_.pop_back();
      if (!alive_[u] || deg_[u] != 2) continue;
      DegreeTwoPathReduction(u);
      continue;
    }
    if (!dominated_.empty()) {
      ApplyDominance();
      continue;
    }
    const Vertex u = peel_queue.PopMax(
        [&](Vertex x) { return deg_[x]; },
        [&](Vertex x) { return alive_[x] && deg_[x] >= 2; });
    if (u == kInvalidVertex) break;
    if (!peeled_yet) {
      peeled_yet = true;
      if (auto* t = obs::Trace()) t->Instant("nearlinear.first_peel");
      sol_->kernel_vertices = active_;
      for (Vertex x = 0; x < n_; ++x) {
        if (alive_[x]) sol_->kernel_edges += deg_[x];
      }
      sol_->kernel_edges /= 2;
      capture_now();
    }
    (*peeled_orig_)[to_orig_[u]] = 1;
    ++sol_->rules.peels;
    DeleteVertex(u);
  }
  if (!peeled_yet) capture_now();
}

}  // namespace

MisSolution RunNearLinear(const Graph& g, KernelSnapshot* capture,
                          const NearLinearOptions& options) {
  obs::TraceSpan algo_span(obs::Trace(), "nearlinear");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);

  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> deg(n);
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.Degree(v);
    if (deg[v] == 0) {
      sol.in_set[v] = 1;
      ++sol.rules.degree_zero;
    }
  }

  // Prepass 1: one-pass dominance, decreasing degree order (shrinks Δ).
  if (options.one_pass_dominance) {
    obs::TraceSpan span(obs::Trace(), "nearlinear.prepass.dominance");
    sol.rules.one_pass_dominance = OnePassDominance(g, alive, deg, sol.in_set);
  }

  // Prepass 2: Nemhauser–Trotter persistency on the surviving subgraph.
  if (options.lp_reduction) {
    obs::TraceSpan span(obs::Trace(), "nearlinear.prepass.lp");
    std::vector<uint8_t> keep(n);
    for (Vertex v = 0; v < n; ++v) keep[v] = alive[v] && deg[v] > 0;
    const VertexRenaming ren = BuildRenaming(keep);
    std::vector<Edge> edges;
    BuildCompactEdges(g, ren, &edges);  // deterministic parallel build
    const LpReduction lp =
        SolveLpReduction(static_cast<Vertex>(ren.kept.size()), edges);
    sol.rules.lp = lp.num_include + lp.num_exclude;
    for (Vertex c = 0; c < ren.kept.size(); ++c) {
      const Vertex v = ren.kept[c];
      if (lp.include[c]) {
        sol.in_set[v] = 1;
        alive[v] = 0;  // decided; drops out of the kernel
      } else if (lp.exclude[c]) {
        alive[v] = 0;
      }
    }
  }

  // Build the compact kernel instance for the main loop.
  std::vector<Vertex> kernel_to_orig;
  std::vector<Edge> kernel_edges;
  {
    obs::TraceSpan span(obs::Trace(), "nearlinear.kernel_build");
    // Recompute liveness-aware degrees after the prepasses.
    std::vector<uint8_t> keep(n, 0);
    for (Vertex v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      uint32_t d = 0;
      for (Vertex w : g.Neighbors(v)) {
        if (alive[w]) ++d;
      }
      if (d == 0) {
        sol.in_set[v] = 1;  // isolated survivor joins I
      } else {
        keep[v] = 1;
      }
    }
    VertexRenaming ren = BuildRenaming(keep);
    BuildCompactEdges(g, ren, &kernel_edges);  // deterministic parallel build
    kernel_to_orig = std::move(ren.kept);
  }
  const Graph kernel = Graph::FromEdges(
      static_cast<Vertex>(kernel_to_orig.size()), kernel_edges);

  std::vector<uint8_t> peeled_orig(n, 0);
  NearLinearCore core(kernel, std::move(kernel_to_orig), &sol, &peeled_orig,
                      options.compaction);
  core.Run(capture != nullptr, capture);

  // Deferred path decisions are recorded in input ids, so they replay
  // directly against the final membership flags.
  obs::TraceSpan finalize_span(obs::Trace(), "nearlinear.finalize");
  core.ReplayDeferred();
  ExtendToMaximal(g, sol.in_set);
  sol.RecountSize();
  sol.peeled = sol.rules.peels;
  for (Vertex v = 0; v < n; ++v) {
    if (peeled_orig[v] && !sol.in_set[v]) ++sol.residual_peeled;
  }
  sol.provably_maximum = (sol.residual_peeled == 0);
  return sol;
}

MisSolution RunNearLinearPerComponent(const Graph& g,
                                      const PerComponentOptions& opts,
                                      const NearLinearOptions& options) {
  const auto algo = [options](const Graph& sub) {
    return RunNearLinear(sub, nullptr, options);
  };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
