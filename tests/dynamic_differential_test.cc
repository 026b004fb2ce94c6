// Randomized differential acceptance tests for the dynamic-update engine
// (ISSUE 5): over >= 10 random 1k-update streams on G(n,p) and Chung-Lu
// graphs, the maintained set must be independent and maximal at EVERY
// step and within 1% of a from-scratch LinearTime solve. The full-check
// harness lives in dynamic/differential.h; scripts/check_dynamic.sh
// re-runs this binary at RPMIS_THREADS=8 and the ASan suite covers it
// via scripts/check_sanitize.sh.
#include "dynamic/differential.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "mis/linear_time.h"

namespace rpmis {
namespace {

DifferentialOptions AcceptanceOptions() {
  DifferentialOptions options;
  options.check_every = 1;
  options.min_ratio = 0.99;
  return options;
}

void RunAcceptanceStream(const Graph& g, uint64_t stream_seed,
                         const DifferentialOptions& options) {
  const auto updates = RandomUpdateStream(g, 1000, stream_seed);
  const DifferentialReport report =
      RunDifferentialStream(g, updates, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.updates_applied, 1000u);
  EXPECT_EQ(report.steps_checked, 1000u);
}

TEST(DynamicDifferentialTest, GnpStreams) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = ErdosRenyiGnp(2000, 2.0 / 2000.0, /*seed=*/seed);
    RunAcceptanceStream(g, /*stream_seed=*/100 + seed, AcceptanceOptions());
  }
}

TEST(DynamicDifferentialTest, ChungLuStreams) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = ChungLuPowerLaw(2000, 3.0, 4.0, /*seed=*/seed);
    RunAcceptanceStream(g, /*stream_seed=*/200 + seed, AcceptanceOptions());
  }
}

TEST(DynamicDifferentialTest, EdgeHeavyStream) {
  const Graph g = ErdosRenyiGnp(1500, 3.0 / 1500.0, /*seed=*/42);
  StreamOptions stream;
  stream.insert_vertex_weight = 0.0;
  stream.delete_vertex_weight = 0.0;
  const auto updates = RandomUpdateStream(g, 1000, /*seed=*/300, stream);
  const DifferentialReport report =
      RunDifferentialStream(g, updates, AcceptanceOptions());
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// An aggressive quality gate makes full re-solves actually fire; the
// maintained set must keep the same guarantees through them.
TEST(DynamicDifferentialTest, AggressiveResolveStream) {
  const Graph g = ChungLuPowerLaw(2000, 3.5, 5.0, /*seed=*/9);
  DifferentialOptions options = AcceptanceOptions();
  options.policy.min_slack = 2;
  options.policy.max_gap = 0.0;
  const auto updates = RandomUpdateStream(g, 1000, /*seed=*/400);
  const DifferentialReport report = RunDifferentialStream(g, updates, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Under the default policy, a cone over the budget takes the full
// re-solve. The graph is K_601 beside a Chung-Lu graph: the stream first
// deletes the clique's one selected vertex, which frees the other 600
// (budget max(512, 2 % of 2,600 alive)), then runs a random stream. The
// stream is short because every check walks the clique's 180k edges.
TEST(DynamicDifferentialTest, OverBudgetConeStream) {
  const Vertex clique = 601;
  const Graph rest = ChungLuPowerLaw(2000, 3.0, 4.0, /*seed=*/21);
  std::vector<Edge> edges = CompleteGraph(clique).CollectEdges();
  for (const auto& [u, v] : rest.CollectEdges()) {
    edges.emplace_back(u + clique, v + clique);
  }
  const Graph g = Graph::FromEdges(clique + rest.NumVertices(), edges);
  const MisSolution sol = RunLinearTime(g);
  Vertex s = 0;
  while (!sol.in_set[s]) ++s;
  ASSERT_LT(s, clique);
  std::vector<GraphUpdate> updates = {GraphUpdate::DeleteVertex(s)};
  for (GraphUpdate& up : RandomUpdateStream(g, 100, /*seed=*/600)) {
    updates.push_back(std::move(up));
  }
  const DifferentialReport report =
      RunDifferentialStream(g, updates, AcceptanceOptions());
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.updates_applied, updates.size());

  DynamicMisEngine engine(g);
  EXPECT_TRUE(engine.Apply(updates[0]).full_resolve);
  EXPECT_EQ(engine.stats().component_fallbacks, 1u);
}

// Tiny graphs hit the degenerate corners (empty graphs, single vertices,
// everything deleted then re-inserted). A percentage bound is meaningless
// when the optimum is 3 vertices, so this stream forces aggressive full
// re-solves and judges quality by absolute gap instead: never more than
// one vertex behind from-scratch.
TEST(DynamicDifferentialTest, TinyGraphTortureStream) {
  const Graph g = ErdosRenyiGnp(12, 0.3, /*seed=*/3);
  StreamOptions stream;
  stream.insert_vertex_weight = 1.0;
  stream.delete_vertex_weight = 1.0;
  const auto updates = RandomUpdateStream(g, 500, /*seed=*/77, stream);
  DifferentialOptions options = AcceptanceOptions();
  options.abs_slack = 1;
  options.policy.min_slack = 0;
  options.policy.max_gap = 0.0;
  const DifferentialReport report =
      RunDifferentialStream(g, updates, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// RandomUpdateStream never revives a dead id. This stream interleaves a
// random one with hand-made updates that revive the ids its `dv`s deleted,
// through `ae` (dead id joined to a live endpoint of the previous update)
// and `av` (a new vertex adjacent to a dead id and a live one), and holds
// the default quality gate to the usual 1% at every step. A hand-made `av`
// takes the next id, so later ids the random stream created are shifted.
TEST(DynamicDifferentialTest, RevivingStreamUnderDefaultGate) {
  const Graph g = ChungLuPowerLaw(3000, 2.5, 6.0, /*seed=*/17);
  const Vertex n = g.NumVertices();
  const auto base = RandomUpdateStream(g, 1000, /*seed=*/500);
  std::vector<Vertex> created;  // base-stream id n + i -> actual id
  Vertex universe = n;
  const auto actual = [&](Vertex x) { return x < n ? x : created[x - n]; };
  std::vector<Vertex> dead;
  std::vector<GraphUpdate> updates;
  uint64_t revived = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    GraphUpdate up = base[i];
    if (up.kind == UpdateKind::kInsertVertex) {
      for (Vertex& x : up.neighbors) x = actual(x);
      created.push_back(universe++);
    } else {
      up.u = actual(up.u);
      if (up.kind != UpdateKind::kDeleteVertex) up.v = actual(up.v);
    }
    if (up.kind == UpdateKind::kDeleteVertex) dead.push_back(up.u);
    const bool edge_update = up.kind == UpdateKind::kInsertEdge ||
                             up.kind == UpdateKind::kDeleteEdge;
    const Vertex live = up.u;
    updates.push_back(std::move(up));
    if (!edge_update || dead.empty() || i % 3 != 0) continue;
    const Vertex d = dead.back();
    dead.pop_back();
    if (revived++ % 2 == 0) {
      updates.push_back(GraphUpdate::InsertEdge(d, live));
    } else {
      updates.push_back(GraphUpdate::InsertVertex({d, live}));
      ++universe;
    }
  }
  ASSERT_GE(revived, 100u);
  const DifferentialReport report =
      RunDifferentialStream(g, updates, AcceptanceOptions());
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.updates_applied, updates.size());
}

}  // namespace
}  // namespace rpmis
