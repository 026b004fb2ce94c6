#include "mis/bdone.h"

#include "mis/working_graph.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace rpmis {

MisSolution RunBDOne(const Graph& g, KernelSnapshot* capture,
                     const BDOneOptions& options) {
  obs::TraceSpan algo_span(obs::Trace(), "bdone");
  const Vertex n = g.NumVertices();
  MisSolution sol;
  sol.in_set.assign(n, 0);
  uint64_t in_count = 0;  // running |I| for progress samples

  // BDOne never rewires, so the working graph views the input CSR.
  WorkingGraph wg(g, {}, WorkingGraph::Adjacency::kView, options.compaction,
                  "bdone.compact", &sol.compaction);
  std::vector<uint8_t> peeled(n, 0);  // input-id space
  std::vector<Vertex> v1;  // degree-one worklist (may hold stale entries)
  for (Vertex v = 0; v < n; ++v) {
    if (wg.deg[v] == 0) {
      sol.in_set[v] = 1;
      ++in_count;
      ++sol.rules.degree_zero;
    } else if (wg.deg[v] == 1) {
      v1.push_back(v);
    }
  }

  // Removes v from the graph: neighbours lose a degree; a neighbour
  // reaching degree 0 joins I (it is now isolated, hence safe to take).
  auto delete_vertex = [&](Vertex v) {
    RPMIS_DASSERT(wg.alive[v] && wg.deg[v] > 0);
    wg.alive[v] = 0;
    --wg.active;
    for (const Vertex w : wg.Neighbors(v)) {
      if (!wg.alive[w]) continue;
      if (--wg.deg[w] == 1) {
        v1.push_back(w);
      } else if (wg.deg[w] == 0) {
        sol.in_set[wg.to_orig[w]] = 1;
        ++in_count;
        --wg.active;
      }
    }
  };

  bool peeled_yet = false;
  {
  obs::TraceSpan core_span(obs::Trace(), "bdone.core");
  while (true) {
    if (auto* ps = obs::Progress(); ps != nullptr && ps->Due()) {
      wg.SampleProgress(ps, in_count, sol.rules.peels, "bdone.core");
    }
    wg.MaybeCompact({&v1});
    if (!v1.empty()) {
      const Vertex u = v1.back();
      v1.pop_back();
      if (!wg.alive[u] || wg.deg[u] != 1) continue;  // stale entry
      // Degree-one reduction: delete u's unique alive neighbour.
      const Vertex nb = wg.FirstAliveNeighbor(u);
      RPMIS_DASSERT(nb != kInvalidVertex);
      delete_vertex(nb);
      ++sol.rules.degree_one;
      continue;
    }
    // Inexact reduction: peel the highest-degree vertex.
    const Vertex u = wg.PopMaxDegree();
    if (u == kInvalidVertex) break;
    if (!peeled_yet) {
      peeled_yet = true;
      wg.NoteFirstPeel("bdone.first_peel", &sol, capture);
    }
    peeled[wg.to_orig[u]] = 1;
    ++sol.rules.peels;
    delete_vertex(u);
  }
  }  // core_span

  if (capture != nullptr && !peeled_yet) {
    wg.CaptureKernel(sol.in_set, capture);  // empty kernel
  }

  ExtendToMaximal(g, sol.in_set);
  sol.Finalize(peeled);
  return sol;
}

MisSolution RunBDOnePerComponent(const Graph& g, const PerComponentOptions& opts,
                                 const BDOneOptions& options) {
  const auto algo = [options](const Graph& sub) {
    return RunBDOne(sub, nullptr, options);
  };
  return opts.parallel ? RunPerComponentParallel(g, algo)
                       : RunPerComponent(g, algo);
}

}  // namespace rpmis
