#include "dynamic/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/linear_time.h"
#include "mis/verify.h"
#include "obs/metrics.h"
#include "support/random.h"
#include "test_util.h"

namespace rpmis {
namespace {

// Audits the engine after an update and returns the failure reason.
::testing::AssertionResult Sound(const DynamicMisEngine& engine) {
  std::string why;
  if (engine.CheckInvariants(&why)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << why;
}

// The engine's current graph restricted to its alive vertices.
Graph AliveGraph(const DynamicMisEngine& engine) {
  std::vector<Vertex> alive;
  for (Vertex v = 0; v < engine.NumVertices(); ++v) {
    if (engine.Exists(v)) alive.push_back(v);
  }
  return engine.CurrentGraph().InducedSubgraph(alive);
}

// From-scratch solve of the engine's current alive-induced graph.
MisSolution ScratchSolve(const DynamicMisEngine& engine) {
  return RunLinearTime(AliveGraph(engine));
}

::testing::AssertionResult SameCsr(const Graph& a, const Graph& b) {
  if (std::ranges::equal(a.RawOffsets(), b.RawOffsets()) &&
      std::ranges::equal(a.RawNeighbors(), b.RawNeighbors())) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "CSR differs: n " << a.NumVertices() << " vs " << b.NumVertices()
         << ", m " << a.NumEdges() << " vs " << b.NumEdges();
}

// Set-based reference model of the engine's graph: ids only grow, dead ids
// keep no edges, and inserting an edge revives its endpoints.
struct GraphModel {
  std::set<Edge> edges;  // (min, max)
  std::vector<uint8_t> alive;

  explicit GraphModel(const Graph& g) : alive(g.NumVertices(), 1) {
    for (const Edge& e : g.CollectEdges()) edges.insert(e);
  }
  Vertex Size() const { return static_cast<Vertex>(alive.size()); }
  static Edge Key(Vertex u, Vertex v) { return {std::min(u, v), std::max(u, v)}; }

  void Apply(const GraphUpdate& up) {
    switch (up.kind) {
      case UpdateKind::kInsertEdge:
        alive[up.u] = alive[up.v] = 1;
        edges.insert(Key(up.u, up.v));
        break;
      case UpdateKind::kDeleteEdge:
        edges.erase(Key(up.u, up.v));
        break;
      case UpdateKind::kInsertVertex: {
        const Vertex id = Size();
        alive.push_back(1);
        for (Vertex w : up.neighbors) {
          alive[w] = 1;
          edges.insert(Key(id, w));
        }
        break;
      }
      case UpdateKind::kDeleteVertex:
        alive[up.u] = 0;
        std::erase_if(edges, [&](const Edge& e) {
          return e.first == up.u || e.second == up.u;
        });
        break;
    }
  }
  Graph ToGraph() const {
    return Graph::FromEdges(Size(), std::vector<Edge>(edges.begin(), edges.end()));
  }
};

// A random valid update over any id of the model's universe, dead ids
// included (so inserts revive them), with vertex inserts while the
// universe is below `max_n`. Edge deletes name present edges; vertex
// deletes name any id, so some are no-ops. About one edge insert in four
// re-inserts an earlier deleted edge that is still absent.
GraphUpdate RandomRevivingUpdate(const GraphModel& model, Vertex max_n,
                                 std::vector<Edge>& deleted, Rng& rng) {
  const Vertex n = model.Size();
  const auto any = [&] { return static_cast<Vertex>(rng.NextBounded(n)); };
  while (true) {
    switch (rng.NextBounded(5)) {
      case 0:
      case 1: {
        if (!deleted.empty() && rng.NextBounded(4) == 0) {
          const Edge e = deleted[rng.NextBounded(deleted.size())];
          if (!model.edges.contains(e)) return GraphUpdate::InsertEdge(e.first, e.second);
        }
        const Vertex u = any(), v = any();
        if (u != v) return GraphUpdate::InsertEdge(u, v);
        break;
      }
      case 2: {
        if (model.edges.empty()) break;
        auto it = model.edges.begin();
        std::advance(it, rng.NextBounded(model.edges.size()));
        deleted.push_back(*it);
        return GraphUpdate::DeleteEdge(it->first, it->second);
      }
      case 3: {
        if (n >= max_n) break;
        std::vector<Vertex> nbs;
        for (uint64_t k = rng.NextBounded(4); k > 0; --k) nbs.push_back(any());
        return GraphUpdate::InsertVertex(std::move(nbs));
      }
      case 4:
        return GraphUpdate::DeleteVertex(any());
    }
  }
}

TEST(DynamicEngineTest, AdoptsInitialSolve) {
  const Graph g = rpmis::testing::PaperFigure5();
  DynamicMisEngine engine(g);
  const MisSolution scratch = RunLinearTime(g);
  EXPECT_EQ(engine.Size(), scratch.size);
  EXPECT_EQ(engine.UpperBound(), scratch.UpperBound());
  EXPECT_TRUE(Sound(engine));
  EXPECT_TRUE(VerifyMis(g, engine.Selector()));
}

TEST(DynamicEngineTest, InsertEdgeBetweenSetMembersEvictsOne) {
  // Path 0-1-2: LinearTime selects {0, 2}. Inserting (0, 2) must evict
  // one endpoint and keep a valid maximal set.
  const Graph g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  DynamicMisEngine engine(g);
  ASSERT_TRUE(engine.InSet(0));
  ASSERT_TRUE(engine.InSet(2));
  const UpdateOutcome out = engine.Apply(GraphUpdate::InsertEdge(0, 2));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(engine.stats().evictions, 1u);
  EXPECT_EQ(out.size_delta, -1);
  EXPECT_EQ(engine.Size(), 1u);
  EXPECT_NE(engine.InSet(0), engine.InSet(2));
}

TEST(DynamicEngineTest, InsertEdgeBetweenOutsidersIsCheap) {
  // Star around 1 plus 3-4: {0, 2} covers the triangle's... here
  // {0, 2, 3} or similar; inserting an edge between two OUT vertices
  // never changes the set.
  const Graph g =
      Graph::FromEdges(5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  DynamicMisEngine engine(g);
  Vertex a = kInvalidVertex, b = kInvalidVertex;
  for (Vertex v = 0; v < 5; ++v) {
    if (!engine.InSet(v)) (a == kInvalidVertex ? a : b) = v;
  }
  ASSERT_NE(b, kInvalidVertex);
  const uint64_t before = engine.Size();
  const UpdateOutcome out = engine.Apply(GraphUpdate::InsertEdge(a, b));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(out.cone, 0u);
  EXPECT_EQ(engine.Size(), before);
}

TEST(DynamicEngineTest, DeleteEdgeFreesAndRepairs) {
  // Path 0-1-2-3: set {0, 2} or {0, 3}... LinearTime picks a maximal set;
  // deleting the edge that blocks an OUT vertex must re-include it.
  const Graph g = Graph::FromEdges(2, std::vector<Edge>{{0, 1}});
  DynamicMisEngine engine(g);
  ASSERT_EQ(engine.Size(), 1u);
  engine.Apply(GraphUpdate::DeleteEdge(0, 1));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(engine.Size(), 2u);  // both isolated now
  EXPECT_GE(engine.UpperBound(), 2u);
}

TEST(DynamicEngineTest, InsertVertexJoinsWhenFree) {
  const Graph g = Graph::FromEdges(2, std::vector<Edge>{{0, 1}});
  DynamicMisEngine engine(g);
  // New vertex adjacent to both: blocked iff one endpoint is in the set.
  engine.Apply(GraphUpdate::InsertVertex({0, 1}));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(engine.NumVertices(), 3u);
  EXPECT_FALSE(engine.InSet(2));
  // An isolated insertion always joins.
  engine.Apply(GraphUpdate::InsertVertex({}));
  EXPECT_TRUE(Sound(engine));
  EXPECT_TRUE(engine.InSet(3));
}

TEST(DynamicEngineTest, DeleteVertexRepairsAroundTheHole) {
  // Star: center 0 with leaves 1..4; the set is the leaves. Deleting a
  // leaf leaves the rest; deleting the center after that is a no-op for
  // the set (it was OUT).
  const Graph g = Graph::FromEdges(
      5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  DynamicMisEngine engine(g);
  ASSERT_EQ(engine.Size(), 4u);
  engine.Apply(GraphUpdate::DeleteVertex(1));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(engine.Size(), 3u);
  EXPECT_FALSE(engine.Exists(1));
  // Deleting the blocked center frees nobody (leaves are all IN).
  engine.Apply(GraphUpdate::DeleteVertex(0));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(engine.Size(), 3u);
}

TEST(DynamicEngineTest, DeleteSetMemberFreesItsCone) {
  // Star again: deleting the center when it IS the set (single edge 0-1
  // graph where 0 in set) re-includes the freed neighbour.
  const Graph g = Graph::FromEdges(2, std::vector<Edge>{{0, 1}});
  DynamicMisEngine engine(g);
  const Vertex member = engine.InSet(0) ? 0 : 1;
  const Vertex other = member == 0 ? 1 : 0;
  engine.Apply(GraphUpdate::DeleteVertex(member));
  EXPECT_TRUE(Sound(engine));
  EXPECT_TRUE(engine.InSet(other));
  EXPECT_EQ(engine.Size(), 1u);
}

TEST(DynamicEngineTest, NoopsAreCountedNotApplied) {
  const Graph g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}});
  DynamicMisEngine engine(g);
  engine.Apply(GraphUpdate::InsertEdge(0, 1));   // already present
  engine.Apply(GraphUpdate::DeleteEdge(0, 2));   // absent
  engine.Apply(GraphUpdate::DeleteVertex(2));
  engine.Apply(GraphUpdate::DeleteVertex(2));    // already dead
  EXPECT_EQ(engine.stats().noops, 3u);
  EXPECT_TRUE(Sound(engine));
}

TEST(DynamicEngineTest, OutOfRangeIdsThrow) {
  const Graph g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}});
  DynamicMisEngine engine(g);
  EXPECT_THROW(engine.Apply(GraphUpdate::InsertEdge(0, 3)), std::out_of_range);
  EXPECT_THROW(engine.Apply(GraphUpdate::DeleteEdge(9, 0)), std::out_of_range);
  EXPECT_THROW(engine.Apply(GraphUpdate::DeleteVertex(3)), std::out_of_range);
  EXPECT_THROW(engine.Apply(GraphUpdate::InsertVertex({5})), std::out_of_range);
  EXPECT_THROW(engine.Apply(GraphUpdate::InsertEdge(1, 1)),
               std::invalid_argument);
  EXPECT_TRUE(Sound(engine));
}

TEST(DynamicEngineTest, InsertEdgeRevivesDeadEndpoint) {
  const Graph g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  DynamicMisEngine engine(g);
  engine.Apply(GraphUpdate::DeleteVertex(0));
  ASSERT_FALSE(engine.Exists(0));
  engine.Apply(GraphUpdate::InsertEdge(0, 2));
  EXPECT_TRUE(engine.Exists(0));
  EXPECT_TRUE(Sound(engine));
}

TEST(DynamicEngineTest, ComponentFallbackOnHugeCone) {
  // A tiny cone budget forces the component path: deleting the center of
  // a big star frees every leaf at once.
  const Vertex leaves = 64;
  std::vector<Edge> edges;
  for (Vertex i = 1; i <= leaves; ++i) edges.emplace_back(0, i);
  const Graph g = Graph::FromEdges(leaves + 1, edges);
  DynamicPolicy policy;
  policy.min_cone = 4;
  policy.cone_fraction = 0.0;
  DynamicMisEngine engine(g, policy);
  // The set is the leaves; delete them until the center flips in, then
  // delete the center to free the remaining leaves in one shot.
  ASSERT_EQ(engine.Size(), leaves);
  for (Vertex i = 1; i <= leaves; ++i) {
    engine.Apply(GraphUpdate::DeleteEdge(0, i));
    ASSERT_TRUE(Sound(engine));
  }
  EXPECT_GT(engine.stats().component_fallbacks +
                engine.stats().included_by_reduction,
            0u);
  EXPECT_EQ(engine.Size(), leaves + 1);  // all isolated now
}

TEST(DynamicEngineTest, ForceResolveTightensTheBound) {
  const Graph g = ErdosRenyiGnp(300, 0.02, /*seed=*/11);
  DynamicMisEngine engine(g);
  const auto stream = RandomUpdateStream(g, 200, /*seed=*/4);
  engine.ApplyUpdates(stream);
  ASSERT_TRUE(Sound(engine));
  const uint64_t resolves_before = engine.stats().full_resolves;
  engine.ForceResolve();
  EXPECT_EQ(engine.stats().full_resolves, resolves_before + 1);
  EXPECT_TRUE(Sound(engine));
  // Right after a re-solve: scratch <= α <= maintained upper bound, and
  // the gap to the bound is the solver's own residual.
  const MisSolution scratch = ScratchSolve(engine);
  EXPECT_GE(engine.UpperBound(), scratch.size);
}

TEST(DynamicEngineTest, LatencyHistogramAndMetrics) {
  const Graph g = ErdosRenyiGnp(200, 0.03, /*seed=*/8);
  DynamicMisEngine engine(g);
  engine.ApplyUpdates(RandomUpdateStream(g, 50, /*seed=*/2));
  EXPECT_EQ(engine.stats().latency.Count(), 50u);
  EXPECT_GT(engine.stats().latency.SumSeconds(), 0.0);

  obs::MetricsRegistry metrics;
  engine.PublishMetrics(metrics);
  EXPECT_EQ(metrics.Counter("dynamic.update_latency.count"), 50u);
  const uint64_t updates = metrics.Counter("dynamic.updates.insert_edge") +
                           metrics.Counter("dynamic.updates.delete_edge") +
                           metrics.Counter("dynamic.updates.insert_vertex") +
                           metrics.Counter("dynamic.updates.delete_vertex");
  EXPECT_EQ(updates, 50u);
  EXPECT_EQ(metrics.Gauge("dynamic.set.size"),
            static_cast<double>(engine.Size()));
}

TEST(DynamicEngineTest, EvictionPrefersPeeledProvenance) {
  // Two triangles joined at 2-3 force LinearTime to peel; whichever
  // endpoints an inserted in-set edge hits, the engine must stay sound
  // and prefer undoing peel decisions (observable as evictions without
  // quality collapse on repeat).
  const Graph g = ErdosRenyiGnp(400, 0.05, /*seed=*/21);
  DynamicMisEngine engine(g);
  const auto stream = RandomUpdateStream(g, 300, /*seed=*/13);
  engine.ApplyUpdates(stream);
  EXPECT_TRUE(Sound(engine));
  EXPECT_GE(static_cast<double>(engine.Size()),
            0.95 * static_cast<double>(ScratchSolve(engine).size));
}

TEST(DynamicEngineTest, UpperBoundSurvivesRevivals) {
  // Edges {0-1, 2-3}: one member per edge, U = α = 2. Delete both
  // non-members, then revive them: joining each of them to the same
  // member raises α to 3; one new vertex adjacent to both raises it to 4.
  const Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  for (const bool by_vertex : {false, true}) {
    DynamicMisEngine engine(g);
    ASSERT_EQ(engine.UpperBound(), 2u);
    std::vector<Vertex> out;
    Vertex member = kInvalidVertex;
    for (Vertex v = 0; v < 4; ++v) {
      if (engine.InSet(v)) {
        member = v;
      } else {
        out.push_back(v);
      }
    }
    for (Vertex v : out) engine.Apply(GraphUpdate::DeleteVertex(v));
    if (by_vertex) {
      engine.Apply(GraphUpdate::InsertVertex(out));
    } else {
      for (Vertex v : out) engine.Apply(GraphUpdate::InsertEdge(v, member));
    }
    const uint64_t alpha = BruteForceAlpha(AliveGraph(engine));
    EXPECT_EQ(alpha, by_vertex ? 4u : 3u);
    EXPECT_GE(engine.UpperBound(), alpha);
    EXPECT_EQ(engine.stats().full_resolves, 0u);
    EXPECT_TRUE(Sound(engine));
  }

  // Random small streams that revive dead ids through ae and av. A large
  // slack keeps the quality gate from re-solving, which would reset U.
  DynamicPolicy policy;
  policy.min_slack = 1000;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Graph g = ErdosRenyiGnm(8 + static_cast<Vertex>(seed % 3), 10, seed);
    DynamicMisEngine engine(g, policy);
    GraphModel model(g);
    std::vector<Edge> deleted;
    for (int step = 0; step < 60; ++step) {
      const GraphUpdate up = RandomRevivingUpdate(model, 14, deleted, rng);
      model.Apply(up);
      engine.Apply(up);
      ASSERT_GE(engine.UpperBound(), BruteForceAlpha(AliveGraph(engine)))
          << "seed " << seed << " step " << step << ": " << FormatUpdate(up);
    }
    EXPECT_GT(engine.stats().insert_vertices, 0u);
  }
}

TEST(DynamicEngineTest, StoreMatchesReferenceModel) {
  // The engine's graph against a set model through vertex inserts beyond
  // the base, vertex deletes, revivals, re-inserted base edges and a full
  // re-solve every seventh update (which rebuilds the base).
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const Graph g = ErdosRenyiGnm(30, 70, seed);
    DynamicMisEngine engine(g);
    GraphModel model(g);
    std::vector<Edge> deleted;
    for (int step = 1; step <= 300; ++step) {
      const GraphUpdate up = RandomRevivingUpdate(model, 60, deleted, rng);
      model.Apply(up);
      engine.Apply(up);
      if (step % 7 == 0) engine.ForceResolve();
      ASSERT_TRUE(SameCsr(engine.CurrentGraph(), model.ToGraph()))
          << "seed " << seed << " step " << step << ": " << FormatUpdate(up);
      ASSERT_EQ(engine.NumAliveEdges(), model.edges.size());
      Vertex alive = 0;
      for (Vertex v = 0; v < model.Size(); ++v) {
        ASSERT_EQ(engine.Exists(v), model.alive[v] != 0) << "vertex " << v;
        alive += model.alive[v];
      }
      ASSERT_EQ(engine.NumAliveVertices(), alive);
      ASSERT_TRUE(Sound(engine)) << "seed " << seed << " step " << step;
    }
    EXPECT_GT(engine.NumVertices(), g.NumVertices());
  }
}

TEST(DynamicEngineTest, ForceResolveIsALinearTimeSolveOfTheCurrentGraph) {
  const Graph g = ErdosRenyiGnp(300, 0.02, /*seed=*/5);
  DynamicMisEngine engine(g);
  engine.ApplyUpdates(RandomUpdateStream(g, 300, /*seed=*/6));
  engine.ForceResolve();
  const Graph current = engine.CurrentGraph();
  MisSolution scratch = RunLinearTime(current);
  bool dead = false;
  for (Vertex v = 0; v < current.NumVertices(); ++v) {
    if (engine.Exists(v)) continue;
    scratch.in_set[v] = 0;  // dead ids are isolated in the snapshot
    dead = true;
  }
  EXPECT_TRUE(dead);
  EXPECT_GT(engine.NumVertices(), g.NumVertices());
  EXPECT_EQ(engine.Selector(), scratch.in_set);
  EXPECT_TRUE(Sound(engine));
}

TEST(DynamicEngineTest, IsolationSeesATriangleClosedByAnInsertedEdge) {
  // An empty graph, then the triangle 0-1-2 by edge inserts: every edge is
  // in the overlay. Vertex 4 joins 0, 1 and 2; deleting the one member
  // among them frees the other two and 4, a triangle whose free-degree-two
  // vertices the isolation rule takes without a greedy step.
  DynamicPolicy policy;
  policy.min_slack = 1000;
  DynamicMisEngine engine(Graph::FromEdges(4, std::vector<Edge>{}), policy);
  engine.Apply(GraphUpdate::InsertEdge(0, 1));
  engine.Apply(GraphUpdate::InsertEdge(0, 2));
  engine.Apply(GraphUpdate::InsertEdge(1, 2));
  engine.Apply(GraphUpdate::InsertVertex({0, 1, 2}));
  Vertex member = kInvalidVertex;
  for (Vertex v = 0; v < 3; ++v) {
    if (engine.InSet(v)) member = v;
  }
  ASSERT_NE(member, kInvalidVertex);
  ASSERT_FALSE(engine.InSet(4));
  engine.Apply(GraphUpdate::DeleteVertex(member));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(engine.stats().included_greedy, 0u);
  EXPECT_EQ(engine.Size(), 2u);  // vertex 3 and one vertex of the triangle
}

TEST(DynamicEngineTest, IsolationIgnoresADeletedBaseEdge) {
  // K4: one member m, the other three form a triangle blocked only by m.
  // Deleting the base edge between the two lower ids of the three turns
  // the triangle into a path; deleting m then frees the path, whose first
  // freed vertex (the highest id, the middle of the path) must not be taken
  // as a triangle's isolated vertex: the path's two ends are.
  DynamicPolicy policy;
  policy.min_slack = 1000;
  const Graph g = CompleteGraph(4);
  DynamicMisEngine engine(g, policy);
  std::vector<Vertex> rest;
  Vertex member = kInvalidVertex;
  for (Vertex v = 0; v < 4; ++v) {
    if (engine.InSet(v)) {
      member = v;
    } else {
      rest.push_back(v);
    }
  }
  ASSERT_EQ(rest.size(), 3u);
  engine.Apply(GraphUpdate::DeleteEdge(rest[0], rest[1]));
  ASSERT_EQ(engine.Size(), 1u);
  engine.Apply(GraphUpdate::DeleteVertex(member));
  EXPECT_TRUE(Sound(engine));
  EXPECT_EQ(engine.Size(), 2u);
  EXPECT_TRUE(engine.InSet(rest[0]));
  EXPECT_TRUE(engine.InSet(rest[1]));
}

}  // namespace
}  // namespace rpmis
