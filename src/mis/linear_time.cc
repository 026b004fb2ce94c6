#include "mis/linear_time.h"

#include <algorithm>
#include <numeric>

#include "ds/bucket_queue.h"
#include "mis/compaction.h"
#include "mis/kernel_capture.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace rpmis {

namespace {

// Mutable adjacency view over a private copy of the CSR neighbour array.
// Entries can be overwritten (rewired); deleted endpoints are skipped via
// the alive bitmap, never physically removed — except by Compact(), which
// rebuilds the arrays over the surviving subgraph (dropping exactly the
// slots every scan would have skipped, in order, so scans behave
// identically afterwards).
struct MutableCsr {
  explicit MutableCsr(const Graph& g) : offsets(g.RawOffsets()) {
    const std::span<const Vertex> nbs = g.RawNeighbors();
    adj.assign(nbs.begin(), nbs.end());
  }

  uint64_t Begin(Vertex v) const { return offsets[v]; }
  uint64_t End(Vertex v) const { return offsets[v + 1]; }

  // Replaces the slot of `old_nb` in a's list with `new_nb`.
  void Rewire(Vertex a, Vertex old_nb, Vertex new_nb) {
    for (uint64_t e = Begin(a); e < End(a); ++e) {
      if (adj[e] == old_nb) {
        adj[e] = new_nb;
        return;
      }
    }
    RPMIS_ASSERT_MSG(false, "rewire target not found");
  }

  void Compact(const VertexRenaming& ren, CompactionStats* stats) {
    std::vector<uint64_t> new_offsets;
    std::vector<Vertex> new_adj;
    CompactCsr(ren, offsets, adj, &new_offsets, &new_adj,
               /*old_slot_to_new=*/nullptr, stats);
    own_offsets = std::move(new_offsets);
    offsets = own_offsets;
    adj = std::move(new_adj);
  }

  std::span<const uint64_t> offsets;  // input CSR, then own_offsets
  std::vector<uint64_t> own_offsets;
  std::vector<Vertex> adj;
};

}  // namespace

MisSolution RunLinearTime(const Graph& g, KernelSnapshot* capture,
                          const LinearTimeOptions& options) {
  obs::TraceSpan algo_span(obs::Trace(), "lineartime");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);
  uint64_t in_count = 0;  // running |I| for progress samples

  MutableCsr csr(g);
  // Current id -> input id (identity until the first compaction). Decisions
  // (in_set, peeled, deferred) are always recorded in input ids.
  std::vector<Vertex> to_orig(n);
  std::iota(to_orig.begin(), to_orig.end(), Vertex{0});

  std::vector<uint8_t> alive(n, 1);
  std::vector<uint8_t> peeled(n, 0);       // input-id space
  std::vector<uint32_t> deg(n);
  std::vector<Vertex> v1, v2;              // worklists (may hold stale entries)
  std::vector<DeferredDecision> deferred;  // the stack S of Algorithm 4
  Vertex active = 0;                       // # vertices with alive && deg > 0
  for (Vertex v = 0; v < n; ++v) {
    deg[v] = g.Degree(v);
    if (deg[v] == 0) {
      sol.in_set[v] = 1;
      ++in_count;
      ++sol.rules.degree_zero;
    } else {
      ++active;
      if (deg[v] == 1) {
        v1.push_back(v);
      } else if (deg[v] == 2) {
        v2.push_back(v);
      }
    }
  }
  LazyMaxBucketQueue peel_queue(deg);
  CompactionPolicy policy(options.compaction, n);

  auto first_alive_neighbor = [&](Vertex v) {
    for (uint64_t e = csr.Begin(v); e < csr.End(v); ++e) {
      if (alive[csr.adj[e]]) return csr.adj[e];
    }
    return kInvalidVertex;
  };

  // The alive neighbour of v other than `exclude` (v must have exactly two
  // alive neighbours).
  auto other_alive_neighbor = [&](Vertex v, Vertex exclude) {
    for (uint64_t e = csr.Begin(v); e < csr.End(v); ++e) {
      const Vertex w = csr.adj[e];
      if (alive[w] && w != exclude) return w;
    }
    return kInvalidVertex;
  };

  auto has_alive_edge = [&](Vertex a, Vertex b) {
    if (deg[a] > deg[b]) std::swap(a, b);
    for (uint64_t e = csr.Begin(a); e < csr.End(a); ++e) {
      if (csr.adj[e] == b) return alive[b] != 0;
    }
    return false;
  };

  // Generic vertex deletion with degree bookkeeping.
  auto delete_vertex = [&](Vertex v) {
    RPMIS_DASSERT(alive[v] && deg[v] > 0);
    alive[v] = 0;
    --active;
    for (uint64_t e = csr.Begin(v); e < csr.End(v); ++e) {
      const Vertex w = csr.adj[e];
      if (!alive[w]) continue;
      const uint32_t d = --deg[w];
      if (d == 1) {
        v1.push_back(w);
      } else if (d == 2) {
        v2.push_back(w);
      } else if (d == 0) {
        sol.in_set[to_orig[w]] = 1;
        ++in_count;
        --active;
      }
    }
  };

  // Applies the degree-two path/cycle reductions to the maximal structure
  // containing u (u alive, deg == 2).
  auto degree_two_path_reduction = [&](Vertex u) {
    // Walk both directions from u while degree stays 2, collecting the
    // maximal degree-two path (or detecting a degree-two cycle).
    Vertex start[2];
    start[0] = first_alive_neighbor(u);
    start[1] = other_alive_neighbor(u, start[0]);
    RPMIS_DASSERT(start[0] != kInvalidVertex && start[1] != kInvalidVertex);
    std::vector<Vertex> side[2];
    bool is_cycle = false;
    Vertex attach[2] = {kInvalidVertex, kInvalidVertex};
    for (int dir = 0; dir < 2 && !is_cycle; ++dir) {
      Vertex prev = u;
      Vertex cur = start[dir];
      while (deg[cur] == 2) {
        if (cur == u) {
          is_cycle = true;
          break;
        }
        side[dir].push_back(cur);
        const Vertex next = other_alive_neighbor(cur, prev);
        RPMIS_DASSERT(next != kInvalidVertex);
        prev = cur;
        cur = next;
      }
      if (!is_cycle) attach[dir] = cur;
    }

    if (is_cycle) {
      ++sol.rules.degree_two_path;
      // Degree-two cycle: drop u; the rest unravels by degree-one steps.
      delete_vertex(u);
      return;
    }

    // path = v_1 .. v_l with attach[1] - v_1 ... u ... v_l - attach[0].
    std::vector<Vertex> path;
    path.reserve(side[0].size() + side[1].size() + 1);
    for (size_t i = side[1].size(); i-- > 0;) path.push_back(side[1][i]);
    path.push_back(u);
    path.insert(path.end(), side[0].begin(), side[0].end());
    const Vertex v = attach[1];
    const Vertex w = attach[0];
    RPMIS_DASSERT(v != kInvalidVertex && w != kInvalidVertex);
    const size_t l = path.size();

    if (v == w) {
      // Case 1: common attachment; exclude it, path unravels degree-one.
      ++sol.rules.degree_two_path;
      delete_vertex(v);
      return;
    }
    const bool vw_edge = has_alive_edge(v, w);
    if (l % 2 == 1) {
      if (vw_edge) {
        // Case 2: drop both attachments; path unravels degree-one.
        ++sol.rules.degree_two_path;
        delete_vertex(v);
        if (alive[w]) delete_vertex(w);
        return;
      }
      if (l == 1) {
        // Singleton path with non-adjacent degree->=3 attachments: the
        // path reductions do not apply (Appendix A.2). Checked once; the
        // vertex re-enters the worklist only if its surroundings change.
        return;
      }
      // Case 3: keep v_1, drop v_2..v_l, rewire (v_1, w); defer decisions
      // for v_2..v_l so pops run v_2, v_3, ..., v_l (v_1's side first).
      // Each deferred vertex records its at-removal partners, so chained
      // rewires keep constraining later replays.
      ++sol.rules.degree_two_path;
      for (size_t i = l; i-- > 1;) {
        deferred.push_back({to_orig[path[i]], to_orig[path[i - 1]],
                            i + 1 < l ? to_orig[path[i + 1]] : to_orig[w]});
      }
      for (size_t i = 1; i < l; ++i) {
        alive[path[i]] = 0;
        deg[path[i]] = 0;
        --active;
      }
      csr.Rewire(path[0], path[1], w);
      csr.Rewire(w, path[l - 1], path[0]);
      // Degrees of v_1 and w are unchanged (one lost slot, one new slot).
      return;
    }
    // Even path: drop all of it; attachments each lose exactly one edge.
    // Defer decisions so pops run v_1, v_2, ..., v_l.
    ++sol.rules.degree_two_path;
    for (size_t i = l; i-- > 0;) {
      deferred.push_back({to_orig[path[i]],
                          i > 0 ? to_orig[path[i - 1]] : to_orig[v],
                          i + 1 < l ? to_orig[path[i + 1]] : to_orig[w]});
    }
    for (size_t i = 0; i < l; ++i) {
      alive[path[i]] = 0;
      deg[path[i]] = 0;
      --active;
    }
    if (vw_edge) {
      // Case 4: no rewire; v and w lose a degree.
      for (Vertex x : {v, w}) {
        const uint32_t d = --deg[x];
        if (d == 1) {
          v1.push_back(x);
        } else if (d == 2) {
          v2.push_back(x);
        } else if (d == 0) {
          sol.in_set[to_orig[x]] = 1;
          ++in_count;
          --active;
        }
      }
    } else {
      // Case 5: rewire (v, w); degrees unchanged.
      csr.Rewire(v, path[0], w);
      csr.Rewire(w, path[l - 1], v);
    }
  };

  // Rebuilds every per-vertex structure over the alive, still-undecided
  // subgraph. Renaming is monotone and slot order is preserved, so every
  // later scan sees the same (alive) neighbour sequence as without
  // compaction and the output is byte-identical.
  auto compact = [&]() {
    obs::TraceSpan span(obs::Trace(), "lineartime.compact");
    const Vertex cur_n = static_cast<Vertex>(to_orig.size());
    std::vector<uint8_t> keep(cur_n);
    for (Vertex x = 0; x < cur_n; ++x) keep[x] = alive[x] && deg[x] > 0;
    VertexRenaming ren = BuildRenaming(keep);
    const Vertex new_n = static_cast<Vertex>(ren.kept.size());
    RPMIS_DASSERT(new_n == active);
    csr.Compact(ren, &sol.compaction);
    std::vector<uint32_t> new_deg(new_n);
    for (Vertex i = 0; i < new_n; ++i) new_deg[i] = deg[ren.kept[i]];
    deg = std::move(new_deg);
    alive.assign(new_n, 1);
    ComposeToOrig(ren, &to_orig);
    RemapWorklist(ren, &v1);
    RemapWorklist(ren, &v2);
    peel_queue.Compact(new_n, ren.to_new);
    policy.NoteRebuild(new_n);
  };

  bool peeled_yet = false;
  auto capture_now = [&]() {
    std::vector<uint8_t> alive_o(n, 0);
    std::vector<uint32_t> deg_o(n, 0);
    const Vertex cur_n = static_cast<Vertex>(to_orig.size());
    for (Vertex a = 0; a < cur_n; ++a) {
      alive_o[to_orig[a]] = alive[a];
      deg_o[to_orig[a]] = deg[a];
    }
    std::vector<Edge> edges;
    for (Vertex a = 0; a < cur_n; ++a) {
      if (!alive[a] || deg[a] == 0) continue;
      for (uint64_t e = csr.Begin(a); e < csr.End(a); ++e) {
        const Vertex b = csr.adj[e];
        if (a < b && alive[b] && deg[b] > 0) {
          edges.emplace_back(to_orig[a], to_orig[b]);
        }
      }
    }
    internal::BuildKernelSnapshot(alive_o, deg_o, sol.in_set, edges, deferred,
                                  capture);
  };

  // Progress snapshot: O(live) edge recount, amortized by the stride.
  auto sample_progress = [&](obs::ProgressSampler* ps) {
    const Vertex cur_n = static_cast<Vertex>(to_orig.size());
    uint64_t deg_sum = 0;
    for (Vertex x = 0; x < cur_n; ++x) {
      if (alive[x]) deg_sum += deg[x];
    }
    obs::ProgressSample s;
    s.live_vertices = active;
    s.live_edges = deg_sum / 2;
    s.solution_size = in_count;
    // Crude in-flight bound: everything still live, deferred, or peeled
    // so far may yet join I (DESIGN.md §8).
    s.upper_bound = in_count + active + deferred.size() + sol.rules.peels;
    s.label = "lineartime.core";
    ps->Record(std::move(s));
  };

  {
  obs::TraceSpan core_span(obs::Trace(), "lineartime.core");
  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      sample_progress(ps);
    }
    if (policy.ShouldCompact(active)) compact();
    if (!v1.empty()) {
      const Vertex u = v1.back();
      v1.pop_back();
      if (!alive[u] || deg[u] != 1) continue;
      const Vertex nb = first_alive_neighbor(u);
      RPMIS_DASSERT(nb != kInvalidVertex);
      delete_vertex(nb);
      ++sol.rules.degree_one;
      continue;
    }
    if (!v2.empty()) {
      const Vertex u = v2.back();
      v2.pop_back();
      if (!alive[u] || deg[u] != 2) continue;
      // Singleton non-applicable structures are checked once and skipped:
      // both neighbours have degree >= 3 and are non-adjacent.
      degree_two_path_reduction(u);
      continue;
    }
    const Vertex u = peel_queue.PopMax(
        [&](Vertex x) { return deg[x]; },
        [&](Vertex x) { return alive[x] && deg[x] >= 2; });
    if (u == kInvalidVertex) break;
    if (!peeled_yet) {
      peeled_yet = true;
      if (auto* t = obs::Trace()) t->Instant("lineartime.first_peel");
      sol.kernel_vertices = active;
      const Vertex cur_n = static_cast<Vertex>(to_orig.size());
      for (Vertex x = 0; x < cur_n; ++x) {
        if (alive[x]) sol.kernel_edges += deg[x];
      }
      sol.kernel_edges /= 2;
      if (capture != nullptr) capture_now();
    }
    peeled[to_orig[u]] = 1;
    ++sol.rules.peels;
    delete_vertex(u);
  }
  }  // core_span
  if (capture != nullptr && !peeled_yet) capture_now();

  // Replay the deferred path decisions (LIFO), then the maximality pass
  // that also re-admits compatible peeled vertices (Lines 7-8 of Alg. 4).
  obs::TraceSpan finalize_span(obs::Trace(), "lineartime.finalize");
  ReplayDeferredStack(deferred, sol.in_set);
  ExtendToMaximal(g, sol.in_set);
  sol.RecountSize();
  sol.peeled = sol.rules.peels;
  for (Vertex x = 0; x < n; ++x) {
    if (peeled[x] && !sol.in_set[x]) ++sol.residual_peeled;
  }
  sol.provably_maximum = (sol.residual_peeled == 0);
  if (options.peeled != nullptr) *options.peeled = std::move(peeled);
  return sol;
}

MisSolution RunLinearTimePerComponent(const Graph& g,
                                      const PerComponentOptions& opts,
                                      const LinearTimeOptions& options) {
  LinearTimeOptions sub_options = options;
  // Component sub-solves run in renamed id spaces (and concurrently under
  // opts.parallel); a shared bitmap would mix meaningless ids.
  sub_options.peeled = nullptr;
  const auto algo = [sub_options](const Graph& sub) {
    return RunLinearTime(sub, nullptr, sub_options);
  };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
