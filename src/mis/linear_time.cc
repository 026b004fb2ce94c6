#include "mis/linear_time.h"

#include "mis/working_graph.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace rpmis {

MisSolution RunLinearTime(const Graph& g, KernelSnapshot* capture,
                          const LinearTimeOptions& options) {
  obs::TraceSpan algo_span(obs::Trace(), "lineartime");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);
  uint64_t in_count = 0;  // running |I| for progress samples

  // Rewiring overwrites adjacency slots, so the working graph owns a copy.
  WorkingGraph wg(g, {}, WorkingGraph::Adjacency::kPrivateCopy,
                  options.compaction, "lineartime.compact", &sol.compaction);
  std::vector<uint8_t> peeled(n, 0);  // input-id space
  std::vector<Vertex> v1, v2;         // worklists (may hold stale entries)
  for (Vertex v = 0; v < n; ++v) {
    if (wg.deg[v] == 0) {
      sol.in_set[v] = 1;
      ++in_count;
      ++sol.rules.degree_zero;
    } else if (wg.deg[v] == 1) {
      v1.push_back(v);
    } else if (wg.deg[v] == 2) {
      v2.push_back(v);
    }
  }

  // Degree bookkeeping for a vertex that just lost one alive neighbour.
  auto on_degree_decrease = [&](Vertex w) {
    const uint32_t d = wg.deg[w];
    if (d == 1) {
      v1.push_back(w);
    } else if (d == 2) {
      v2.push_back(w);
    } else if (d == 0) {
      sol.in_set[wg.to_orig[w]] = 1;
      ++in_count;
      --wg.active;
    }
  };

  auto delete_vertex = [&](Vertex v) {
    RPMIS_DASSERT(wg.alive[v] && wg.deg[v] > 0);
    wg.alive[v] = 0;
    --wg.active;
    for (const Vertex w : wg.Neighbors(v)) {
      if (!wg.alive[w]) continue;
      --wg.deg[w];
      on_degree_decrease(w);
    }
  };

  // Applies the degree-two path/cycle reductions to the maximal structure
  // containing u (u alive, deg == 2).
  WorkingGraph::DegreeTwoPath p;
  auto degree_two_path_reduction = [&](Vertex u) {
    wg.WalkDegreeTwoPath(u, &p);
    if (p.is_cycle) {
      ++sol.rules.degree_two_path;
      // Degree-two cycle: drop u; the rest unravels by degree-one steps.
      delete_vertex(u);
      return;
    }
    // path = v_1 .. v_l with v - v_1 ... v_l - w.
    const std::vector<Vertex>& path = p.path;
    const Vertex v = p.v;
    const Vertex w = p.w;
    const size_t l = path.size();

    if (v == w) {
      // Case 1: common attachment; exclude it, path unravels degree-one.
      ++sol.rules.degree_two_path;
      delete_vertex(v);
      return;
    }
    const bool vw_edge = wg.HasAliveEdge(v, w);
    if (l % 2 == 1) {
      if (vw_edge) {
        // Case 2: drop both attachments; path unravels degree-one.
        ++sol.rules.degree_two_path;
        delete_vertex(v);
        if (wg.alive[w]) delete_vertex(w);
        return;
      }
      if (l == 1) {
        // Singleton path with non-adjacent degree->=3 attachments: the
        // path reductions do not apply (Appendix A.2). Checked once; the
        // vertex re-enters the worklist only if its surroundings change.
        return;
      }
      // Case 3: keep v_1, drop v_2..v_l, rewire (v_1, w); deferred pops
      // run v_2, v_3, ..., v_l (v_1's side first). Each deferred vertex
      // records its at-removal partners, so chained rewires keep
      // constraining later replays.
      ++sol.rules.degree_two_path;
      wg.DeferPath(p, 1);
      wg.Rewire(path[0], path[1], w);
      wg.Rewire(w, path[l - 1], path[0]);
      // Degrees of v_1 and w are unchanged (one lost slot, one new slot).
      return;
    }
    // Even path: drop all of it; attachments each lose exactly one edge.
    // Deferred pops run v_1, v_2, ..., v_l.
    ++sol.rules.degree_two_path;
    wg.DeferPath(p, 0);
    if (vw_edge) {
      // Case 4: no rewire; v and w lose a degree.
      for (Vertex x : {v, w}) {
        --wg.deg[x];
        on_degree_decrease(x);
      }
    } else {
      // Case 5: rewire (v, w); degrees unchanged.
      wg.Rewire(v, path[0], w);
      wg.Rewire(w, path[l - 1], v);
    }
  };

  bool peeled_yet = false;
  {
  obs::TraceSpan core_span(obs::Trace(), "lineartime.core");
  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      wg.SampleProgress(ps, in_count, sol.rules.peels, "lineartime.core");
    }
    wg.MaybeCompact({&v1, &v2});
    if (!v1.empty()) {
      const Vertex u = v1.back();
      v1.pop_back();
      if (!wg.alive[u] || wg.deg[u] != 1) continue;
      const Vertex nb = wg.FirstAliveNeighbor(u);
      RPMIS_DASSERT(nb != kInvalidVertex);
      delete_vertex(nb);
      ++sol.rules.degree_one;
      continue;
    }
    if (!v2.empty()) {
      const Vertex u = v2.back();
      v2.pop_back();
      if (!wg.alive[u] || wg.deg[u] != 2) continue;
      // Singleton non-applicable structures are checked once and skipped:
      // both neighbours have degree >= 3 and are non-adjacent.
      degree_two_path_reduction(u);
      continue;
    }
    const Vertex u = wg.PopMaxDegree();
    if (u == kInvalidVertex) break;
    if (!peeled_yet) {
      peeled_yet = true;
      wg.NoteFirstPeel("lineartime.first_peel", &sol, capture);
    }
    peeled[wg.to_orig[u]] = 1;
    ++sol.rules.peels;
    delete_vertex(u);
  }
  }  // core_span
  if (capture != nullptr && !peeled_yet) wg.CaptureKernel(sol.in_set, capture);

  // Replay the deferred path decisions (LIFO), then the maximality pass
  // that also re-admits compatible peeled vertices (Lines 7-8 of Alg. 4).
  obs::TraceSpan finalize_span(obs::Trace(), "lineartime.finalize");
  ReplayDeferredStack(wg.deferred, sol.in_set);
  ExtendToMaximal(g, sol.in_set);
  sol.Finalize(peeled);
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
