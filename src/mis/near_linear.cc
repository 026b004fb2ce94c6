#include "mis/near_linear.h"

#include <algorithm>
#include <ranges>

#include "graph/algorithms.h"
#include "mis/compaction.h"
#include "mis/lp_reduction.h"
#include "mis/working_graph.h"
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
    // Scan N(v) from its high ids down: hubs sit at low ids in the
    // power-law generators and are nearly always in N(u), so a miss
    // shows up early. The order cannot change the answer.
    bool ok = true;
    for (const Vertex w : std::views::reverse(g.Neighbors(v))) {
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

// Directed-edge slot ids of the kernel CSR: 32 bits keep the per-slot
// triangle counts and reverse-slot links at 4 bytes each.
using Slot = uint32_t;

// The NearLinear main loop, operating on a compact kernel graph (the
// instance that remains after the exact prepasses). Membership, peel and
// deferred-path decisions are recorded directly in INPUT ids (through the
// working graph's `to_orig`), so the loop can rebuild its own vertex
// universe mid-run without post-hoc translation.
class NearLinearCore {
 public:
  NearLinearCore(const Graph& kg, std::vector<Vertex> kernel_to_orig,
                 MisSolution* sol, std::vector<uint8_t>* peeled_orig,
                 const CompactionOptions& copts)
      : sol_(sol),
        peeled_orig_(peeled_orig),
        wg_(kg, std::move(kernel_to_orig), WorkingGraph::Adjacency::kPrivateCopy,
            copts, "nearlinear.compact", &sol->compaction),
        mark_(kg.NumVertices()),
        mark2_(kg.NumVertices()) {
    obs::TraceSpan span(obs::Trace(), "nearlinear.triangles");
    rev_ = ReverseEdgeIndex(kg);  // throws if 2m does not fit a Slot
    delta_ = EdgeTriangleCounts(kg, rev_);
    RecountSweepFilters();
    // Initial worklists. Dominated set: u dominates v  =>  v is dominated.
    for (Vertex u = 0; u < kg.NumVertices(); ++u) {
      if (wg_.deg[u] == 2) v2_.push_back(u);
      if (wg_.deg[u] == 0) {
        sol_->in_set[wg_.to_orig[u]] = 1;  // isolated kernel vertex (defensive;
        ++in_count_;                       // prepasses normally strip these)
        continue;
      }
      for (Slot e = wg_.Begin(u); e < wg_.End(u); ++e) {
        if (delta_[e] == wg_.deg[u] - 1) dominated_.push_back(wg_.At(e));
      }
    }
  }

  // Runs to completion.
  void Run(KernelSnapshot* capture);

  /// Replays the deferred stack (partners are input-space ids).
  void ReplayDeferred() { ReplayDeferredStack(wg_.deferred, sol_->in_set); }

 private:
  // Screens the alive pair (v, x) on v's slot e for fresh dominance.
  void RescreenSlot(Vertex v, Slot e, Vertex x) {
    if (wg_.deg[v] >= 1 && delta_[e] == wg_.deg[v] - 1) dominated_.push_back(x);
    if (wg_.deg[x] >= 1 && delta_[e] == wg_.deg[x] - 1) dominated_.push_back(v);
  }

  // Screens every alive pair (v, x) incident to v for fresh dominance and
  // refreshes v's triangle flag from the counts it read.
  void RescreenVertex(Vertex v) {
    if (!wg_.alive[v]) return;
    bool in_triangle = false;
    for (Slot e = wg_.Begin(v); e < wg_.End(v); ++e) {
      const Vertex x = wg_.At(e);
      if (!wg_.alive[x]) continue;
      RescreenSlot(v, e, x);
      in_triangle |= delta_[e] > 0;
    }
    in_triangle_[v] = in_triangle;
  }

  // Recomputes both sweep filters in O(n + m): δ is read in slot order,
  // and each degree-one vertex credits its neighbour. A dead slot may
  // only raise in_triangle_, which is an upper bound.
  void RecountSweepFilters() {
    in_triangle_.assign(wg_.NumVertices(), 0);
    pendants_.assign(wg_.NumVertices(), 0);
    for (Vertex v = 0; v < wg_.NumVertices(); ++v) {
      if (!wg_.alive[v]) continue;
      in_triangle_[v] = std::any_of(delta_.begin() + wg_.Begin(v),
                                    delta_.begin() + wg_.End(v),
                                    [](uint32_t d) { return d > 0; });
      if (wg_.deg[v] == 1) ++pendants_[wg_.FirstAliveNeighbor(v)];
    }
  }

  // Pass B may skip v's sweep when v lies in no triangle, has degree >= 2
  // and no degree-one neighbour: with every δ(v,·) = 0, no slot of v
  // holds a neighbour of the deleted vertex (that would be a triangle),
  // δ = d(v) - 1 needs d(v) = 1 and δ = d(w) - 1 needs d(w) = 1.
  bool CanSkipSweep(Vertex v) const {
    return !in_triangle_[v] && wg_.deg[v] >= 2 && pendants_[v] == 0;
  }

  // Debug checks of the filters: pendants_[v] matches a recount, and a
  // skipped sweep would have decremented nothing and pushed nothing.
  bool PendantCountIsExact(Vertex v) const {
    uint32_t pendants = 0;
    for (const Vertex w : wg_.Neighbors(v)) {
      pendants += wg_.alive[w] && wg_.deg[w] == 1;
    }
    return pendants == pendants_[v];
  }

  bool SkippedSweepIsNoOp(Vertex v) const {
    for (Slot e = wg_.Begin(v); e < wg_.End(v); ++e) {
      const Vertex w = wg_.At(e);
      if (!wg_.alive[w]) continue;
      if (mark_.Contains(w) || delta_[e] == wg_.deg[v] - 1 ||
          delta_[e] == wg_.deg[w] - 1) {
        return false;
      }
    }
    return true;
  }

  void OnDegreeDecrease(Vertex w) {
    if (wg_.deg[w] == 2) {
      v2_.push_back(w);
    } else if (wg_.deg[w] == 1) {
      const Vertex u = wg_.FirstAliveNeighbor(w);
      RPMIS_DASSERT(u != kInvalidVertex);
      ++pendants_[u];
    } else if (wg_.deg[w] == 0) {
      sol_->in_set[wg_.to_orig[w]] = 1;
      ++in_count_;
      --wg_.active;
    }
    // Degree-one vertices need no explicit worklist: such a vertex
    // dominates its remaining neighbour (δ = 0 = deg − 1 on their edge),
    // and the caller's rescreen of that edge enqueues the neighbour.
  }

  // Deletes x, maintaining degrees, triangle counts and the dominated set.
  void DeleteVertex(Vertex x) {
    RPMIS_DASSERT(wg_.alive[x]);
    wg_.alive[x] = 0;
    if (wg_.deg[x] > 0) --wg_.active;
    // Pass A: collect alive neighbours, update degrees. A degree-one x
    // leaves its one neighbour's pendant count.
    const uint32_t was_pendant = wg_.deg[x] == 1;
    scratch_nbrs_.clear();
    for (const Vertex v : wg_.Neighbors(x)) {
      if (!wg_.alive[v]) continue;
      scratch_nbrs_.push_back(v);
      pendants_[v] -= was_pendant;
      --wg_.deg[v];
      OnDegreeDecrease(v);
    }
    // Pass B, one sweep per neighbour v: each triangle (x, v, w) loses x,
    // so δ(v, w) drops (its mirror drops in w's sweep); then v, having
    // lost a degree, is screened on the same slot (§5 discussion). Only
    // v's sweep writes v's slots and pass A set every degree, so this
    // matches a separate rescreen pass push for push. A sweep that
    // CanSkipSweep proves empty is skipped.
    mark_.Clear();
    for (Vertex v : scratch_nbrs_) mark_.Insert(v);
    for (Vertex v : scratch_nbrs_) {
      RPMIS_DASSERT(PendantCountIsExact(v));
      if (CanSkipSweep(v)) {
        RPMIS_DASSERT(SkippedSweepIsNoOp(v));
        continue;
      }
      bool in_triangle = false;
      for (Slot e = wg_.Begin(v); e < wg_.End(v); ++e) {
        const Vertex w = wg_.At(e);
        if (!wg_.alive[w]) continue;
        if (mark_.Contains(w)) {
          RPMIS_DASSERT(delta_[e] > 0);
          --delta_[e];
        }
        RescreenSlot(v, e, w);
        in_triangle |= delta_[e] > 0;
      }
      in_triangle_[v] = in_triangle;
    }
  }

  // Rewires a's slot holding old_nb to new_nb; returns the slot.
  Slot Rewire(Vertex a, Vertex old_nb, Vertex new_nb) {
    return static_cast<Slot>(wg_.Rewire(a, old_nb, new_nb));
  }

  void DegreeTwoPathReduction(Vertex u);
  void ApplyDominance();
  void MaybeCompact();

  MisSolution* sol_;
  std::vector<uint8_t>* peeled_orig_;
  WorkingGraph wg_;
  std::vector<uint32_t> delta_;  // per slot: triangles through the edge
  std::vector<Slot> rev_;        // per slot: the reverse slot
  // Sweep filters (DESIGN.md §3). in_triangle_ is an upper bound: 0 means
  // every alive slot of the vertex has δ = 0. pendants_ is exact: the
  // number of alive degree-one neighbours.
  std::vector<uint8_t> in_triangle_;
  std::vector<uint32_t> pendants_;
  std::vector<Vertex> v2_;
  std::vector<Vertex> dominated_;
  std::vector<Vertex> scratch_nbrs_;
  WorkingGraph::DegreeTwoPath path_;
  FastSet mark_, mark2_;
  uint64_t in_base_ = 0;   // |I| decided before the core started
  uint64_t in_count_ = 0;  // vertices this core added to I
};

void NearLinearCore::ApplyDominance() {
  const Vertex u = dominated_.back();
  dominated_.pop_back();
  if (!wg_.alive[u] || wg_.deg[u] == 0) return;
  // Re-verify: u may no longer be dominated (mutual dominance, §A.3).
  for (Slot e = wg_.Begin(u); e < wg_.End(u); ++e) {
    const Vertex v = wg_.At(e);
    if (!wg_.alive[v]) continue;
    if (delta_[e] == wg_.deg[v] - 1) {
      // v dominates u: remove u.
      DeleteVertex(u);
      ++sol_->rules.dominance;
      return;
    }
  }
}

void NearLinearCore::DegreeTwoPathReduction(Vertex u) {
  wg_.WalkDegreeTwoPath(u, &path_);
  if (path_.is_cycle) {
    ++sol_->rules.degree_two_path;
    DeleteVertex(u);
    return;
  }
  const std::vector<Vertex>& path = path_.path;
  const Vertex v = path_.v;
  const Vertex w = path_.w;
  const size_t l = path.size();

  if (v == w) {
    ++sol_->rules.degree_two_path;  // Case 1
    DeleteVertex(v);
    return;
  }
  const bool vw_edge = wg_.HasAliveEdge(v, w);
  if (l % 2 == 1) {
    if (vw_edge) {
      ++sol_->rules.degree_two_path;  // Case 2
      DeleteVertex(v);
      if (wg_.alive[w]) DeleteVertex(w);
      return;
    }
    if (l == 1) return;  // not applicable (Appendix A.2); checked once
    // Case 3: keep v_1, drop v_2..v_l, rewire (v_1, w) with δ = 0.
    ++sol_->rules.degree_two_path;
    wg_.DeferPath(path_, 1);
    const Slot e1 = Rewire(path[0], path[1], w);
    const Slot e2 = Rewire(w, path[l - 1], path[0]);
    delta_[e1] = 0;
    delta_[e2] = 0;
    rev_[e1] = e2;
    rev_[e2] = e1;
    // A degree-one w moves from v_l to v_1.
    if (wg_.deg[w] == 1) ++pendants_[path[0]];
    // Degrees of v_1 and w unchanged; no dominance can newly arise
    // (both endpoints of the fresh edge keep δ = 0 < deg - 1).
    return;
  }
  // Even path: drop all of it.
  ++sol_->rules.degree_two_path;
  wg_.DeferPath(path_, 0);
  if (vw_edge) {
    // Case 4: v and w lose one degree; triangle counts are untouched, so
    // only their own "dominates a neighbour" status can flip.
    for (Vertex x : {v, w}) {
      --wg_.deg[x];
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
    // A degree-one attachment becomes a pendant of the other one.
    if (wg_.deg[v] == 1) ++pendants_[w];
    if (wg_.deg[w] == 1) ++pendants_[v];
    mark_.Clear();
    for (const Vertex x : wg_.Neighbors(w)) {
      if (wg_.alive[x]) mark_.Insert(x);
    }
    uint32_t common = 0;
    mark2_.Clear();
    for (Slot e = wg_.Begin(v); e < wg_.End(v); ++e) {
      const Vertex x = wg_.At(e);
      if (x == w || !wg_.alive[x] || !mark_.Contains(x)) continue;
      ++common;
      ++delta_[e];
      ++delta_[rev_[e]];
      in_triangle_[x] = 1;
      mark2_.Insert(x);
    }
    for (Slot e = wg_.Begin(w); e < wg_.End(w); ++e) {
      const Vertex x = wg_.At(e);
      if (wg_.alive[x] && mark2_.Contains(x)) {
        ++delta_[e];
        ++delta_[rev_[e]];
      }
    }
    delta_[e1] = common;
    delta_[e2] = common;
    RescreenVertex(v);  // also refreshes the triangle flags of v and w
    RescreenVertex(w);
  }
}

// Lets the working graph rebuild itself, then carries the per-slot δ and
// reverse links over: a slot survives iff its owner and target survive,
// so its reverse slot survives too. The sweep filters are recounted.
void NearLinearCore::MaybeCompact() {
  std::vector<uint32_t> slot_map;
  if (!wg_.MaybeCompact({&v2_, &dominated_}, &slot_map)) return;
  std::vector<uint32_t> new_delta(wg_.NumSlots());
  std::vector<Slot> new_rev(new_delta.size());
  for (size_t s = 0; s < slot_map.size(); ++s) {
    if (slot_map[s] == kInvalidVertex) continue;
    new_delta[slot_map[s]] = delta_[s];
    new_rev[slot_map[s]] = slot_map[rev_[s]];
  }
  delta_ = std::move(new_delta);
  rev_ = std::move(new_rev);
  mark_.Resize(wg_.NumVertices());
  mark2_.Resize(wg_.NumVertices());
  RecountSweepFilters();  // geometric rebuilds: O(n + m) in total
}

void NearLinearCore::Run(KernelSnapshot* capture) {
  obs::TraceSpan core_span(obs::Trace(), "nearlinear.core");
  if (obs::Progress() != nullptr) {
    // Baseline |I| for progress samples: prepass decisions, minus what the
    // constructor already attributed to this core.
    uint64_t total = 0;
    for (uint8_t f : sol_->in_set) total += f;
    in_base_ = total - in_count_;
  }
  bool peeled_yet = false;
  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      wg_.SampleProgress(ps, in_base_ + in_count_, sol_->rules.peels,
                         "nearlinear.core");
    }
    MaybeCompact();
    if (!v2_.empty()) {
      const Vertex u = v2_.back();
      v2_.pop_back();
      if (!wg_.alive[u] || wg_.deg[u] != 2) continue;
      DegreeTwoPathReduction(u);
      continue;
    }
    if (!dominated_.empty()) {
      ApplyDominance();
      continue;
    }
    const Vertex u = wg_.PopMaxDegree();
    if (u == kInvalidVertex) break;
    if (!peeled_yet) {
      peeled_yet = true;
      wg_.NoteFirstPeel("nearlinear.first_peel", sol_, capture);
    }
    (*peeled_orig_)[wg_.to_orig[u]] = 1;
    ++sol_->rules.peels;
    DeleteVertex(u);
  }
  if (capture != nullptr && !peeled_yet) wg_.CaptureKernel(sol_->in_set, capture);
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

  const auto neighbors = [&g](Vertex v) { return g.Neighbors(v); };

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
    const LpReduction lp = SolveLpReduction(BuildCompactGraph(ren, neighbors));
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
  Graph kernel;
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
    kernel = BuildCompactGraph(ren, neighbors);
    kernel_to_orig = std::move(ren.kept);
  }

  std::vector<uint8_t> peeled_orig(n, 0);
  NearLinearCore core(kernel, std::move(kernel_to_orig), &sol, &peeled_orig,
                      options.compaction);
  core.Run(capture);

  // Deferred path decisions are recorded in input ids, so they replay
  // directly against the final membership flags.
  obs::TraceSpan finalize_span(obs::Trace(), "nearlinear.finalize");
  core.ReplayDeferred();
  ExtendToMaximal(g, sol.in_set);
  sol.Finalize(peeled_orig);
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
