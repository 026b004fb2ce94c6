// Dynamic-update micro-benchmark: per-update cost of the dynamic engine
// versus a from-scratch LinearTime re-solve, on a Chung–Lu power-law
// graph (default n=1M avg deg 20, ~10M edges; --fast: n=200k avg 10,
// ~1M edges — still over the 1M-edge acceptance floor).
//
// The headline criterion is exit-code enforced so the --fast run doubles
// as a ctest smoke: the mean single-edge update must be at least 10x
// faster than one from-scratch solve, and the maintained set must stay a
// valid MIS within 1% of a from-scratch solve of the final graph. One
// JSONL run record per measured phase (--records), with the engine's
// dynamic.* counters and latency histogram in the dynamic record.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dynamic/engine.h"
#include "dynamic/update.h"
#include "graph/generators.h"
#include "mis/linear_time.h"
#include "mis/verify.h"
#include "obs/metrics.h"
#include "support/parallel.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace rpmis;
  using namespace rpmis::bench;

  const bool fast = HasFlag(argc, argv, "--fast");
  const Vertex n = fast ? 200'000 : 1'000'000;
  const double avg_degree = fast ? 10.0 : 20.0;
  const size_t num_updates = fast ? 2'000 : 10'000;
  const int reps = fast ? 1 : 3;
  ObsSession obs("bench_micro_dynamic", argc, argv);

  PrintHeader("micro: dynamic updates (engine vs from-scratch)",
              "cone-local repair makes one edge update orders of magnitude "
              "cheaper than re-running LinearTime");

  std::printf("generating Chung-Lu power-law (n=%llu, beta=3.5, avg=%.0f) ...\n",
              static_cast<unsigned long long>(n), avg_degree);
  const Graph g = ChungLuPowerLaw(n, 3.5, avg_degree, 42);
  std::printf("n=%llu m=%llu threads=%zu\n",
              static_cast<unsigned long long>(g.NumVertices()),
              static_cast<unsigned long long>(g.NumEdges()), NumThreads());

  // Baseline: one from-scratch LinearTime solve (best over reps).
  double scratch_seconds = 0.0;
  uint64_t scratch_size = 0;
  for (int r = 0; r < reps; ++r) {
    ObsSession::Run run = obs.Start("lineartime", "chung-lu-powerlaw", 42);
    Timer t;
    const MisSolution sol = RunLinearTime(g);
    const double s = t.Seconds();
    run.NoteSeconds(s);
    run.NoteSolution(sol);
    if (r == 0 || s < scratch_seconds) scratch_seconds = s;
    scratch_size = sol.size;
  }
  std::printf("from-scratch solve: %.3fs (size %llu)\n", scratch_seconds,
              static_cast<unsigned long long>(scratch_size));

  // Single-edge updates only: the acceptance criterion is about edge
  // updates, and mixed-op coverage lives in the differential test.
  StreamOptions stream_opts;
  stream_opts.insert_vertex_weight = 0.0;
  stream_opts.delete_vertex_weight = 0.0;
  const std::vector<GraphUpdate> updates =
      RandomUpdateStream(g, num_updates, /*seed=*/7, stream_opts);

  ObsSession::Run run = obs.Start("dynamic", "chung-lu-powerlaw", 7);
  Timer t;
  DynamicMisEngine engine(g);
  const double init_seconds = t.Seconds();
  t.Restart();
  engine.ApplyUpdates(updates);
  const double apply_seconds = t.Seconds();
  const double per_update = apply_seconds / static_cast<double>(updates.size());

  engine.PublishMetrics(run.metrics());
  run.NoteSeconds(apply_seconds);
  run.record().AddNumber("graph.vertices", static_cast<double>(g.NumVertices()));
  run.record().AddNumber("graph.edges", static_cast<double>(g.NumEdges()));
  run.record().AddNumber("updates.count", static_cast<double>(updates.size()));
  run.record().AddNumber("updates.per_update_seconds", per_update);
  run.record().AddNumber("solution.final_size",
                         static_cast<double>(engine.Size()));
  run.Commit();

  std::printf("engine: init %.3fs, %zu updates in %.3fs (%.1fus/update)\n",
              init_seconds, updates.size(), apply_seconds, per_update * 1e6);
  std::printf("%s", obs::FormatMetrics(run.record().metrics).c_str());

  // Validity + quality of the final maintained set versus a from-scratch
  // solve of the final graph (alive-induced: edge-only streams keep every
  // vertex alive, but stay universe-safe anyway).
  std::vector<Vertex> alive;
  for (Vertex v = 0; v < engine.NumVertices(); ++v) {
    if (engine.Exists(v)) alive.push_back(v);
  }
  const Graph final_graph = engine.CurrentGraph().InducedSubgraph(alive);
  std::vector<uint8_t> selector(final_graph.NumVertices(), 0);
  for (size_t i = 0; i < alive.size(); ++i) {
    selector[i] = engine.InSet(alive[i]) ? 1 : 0;
  }
  std::string why;
  const bool valid = VerifyMis(final_graph, selector, &why);
  const MisSolution final_scratch = RunLinearTime(final_graph);
  const double quality =
      final_scratch.size == 0
          ? 1.0
          : static_cast<double>(engine.Size()) /
                static_cast<double>(final_scratch.size);
  const double speedup = per_update > 0 ? scratch_seconds / per_update : 0.0;

  std::printf("\nfinal set valid: %s%s%s\n", valid ? "yes" : "NO (BUG)",
              valid ? "" : " — ", valid ? "" : why.c_str());
  std::printf("quality vs from-scratch on final graph: %llu / %llu = %.4f %s\n",
              static_cast<unsigned long long>(engine.Size()),
              static_cast<unsigned long long>(final_scratch.size), quality,
              quality >= 0.99 ? "(>= 0.99: PASS)" : "(< 0.99: FAIL)");
  std::printf("per-update speedup vs from-scratch: %.0fx %s\n", speedup,
              speedup >= 10.0 ? "(>= 10x: PASS)" : "(< 10x: FAIL)");

  return (valid && quality >= 0.99 && speedup >= 10.0) ? 0 : 1;
}
