#include "mis/per_component.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "support/timer.h"

namespace rpmis {
namespace {

// Pins RPMIS_THREADS for a scope and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("RPMIS_THREADS");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    setenv("RPMIS_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      setenv("RPMIS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("RPMIS_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

void ExpectIdenticalSolutions(const MisSolution& a, const MisSolution& b) {
  EXPECT_EQ(a.in_set, b.in_set);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.peeled, b.peeled);
  EXPECT_EQ(a.residual_peeled, b.residual_peeled);
  EXPECT_EQ(a.kernel_vertices, b.kernel_vertices);
  EXPECT_EQ(a.kernel_edges, b.kernel_edges);
  EXPECT_EQ(a.provably_maximum, b.provably_maximum);
  for (const RuleCounterField& f : kRuleCounterFields) {
    EXPECT_EQ(a.rules.*f.member, b.rules.*f.member) << f.metric;
  }
}

// `count` disjoint k-cliques.
Graph ScatteredCliques(Vertex count, Vertex k) {
  GraphBuilder b(count * k);
  for (Vertex c = 0; c < count; ++c) {
    const Vertex base = c * k;
    for (Vertex i = 0; i < k; ++i) {
      for (Vertex j = i + 1; j < k; ++j) b.AddEdge(base + i, base + j);
    }
  }
  return b.Build();
}

// Cycles (pure 2-cores), paths, and small cliques mixed in one graph.
Graph TwoCoreMixture() {
  GraphBuilder b(9 + 6 + 4 + 11 + 2);
  Vertex base = 0;
  for (Vertex i = 0; i < 9; ++i) b.AddEdge(base + i, base + (i + 1) % 9);  // C9
  base += 9;
  for (Vertex i = 0; i + 1 < 6; ++i) b.AddEdge(base + i, base + i + 1);  // P6
  base += 6;
  for (Vertex i = 0; i < 4; ++i) {
    for (Vertex j = i + 1; j < 4; ++j) b.AddEdge(base + i, base + j);  // K4
  }
  base += 4;
  for (Vertex i = 0; i < 11; ++i) b.AddEdge(base + i, base + (i + 1) % 11);  // C11
  return b.Build();  // + 2 isolated vertices
}

Graph DisjointUnion() {
  // Cycle(7) + Path(5) + K5 + two isolated vertices.
  GraphBuilder b(7 + 5 + 5 + 2);
  for (Vertex i = 0; i < 7; ++i) b.AddEdge(i, (i + 1) % 7);
  for (Vertex i = 0; i + 1 < 5; ++i) b.AddEdge(7 + i, 7 + i + 1);
  for (Vertex i = 0; i < 5; ++i) {
    for (Vertex j = i + 1; j < 5; ++j) b.AddEdge(12 + i, 12 + j);
  }
  return b.Build();
}

TEST(PerComponentTest, MergesValidSolutions) {
  Graph g = DisjointUnion();
  MisSolution sol =
      RunPerComponent(g, [](const Graph& sub) { return RunLinearTime(sub); });
  EXPECT_TRUE(IsMaximalIndependentSet(g, sol.in_set));
  // alpha = 3 (C7) + 3 (P5) + 1 (K5) + 2 isolated = 9.
  EXPECT_EQ(BruteForceAlpha(g), 9u);
  EXPECT_LE(sol.size, 9u);
  EXPECT_GE(sol.UpperBound(), 9u);
}

TEST(PerComponentTest, CertificateIsConjunction) {
  // All components reducible => certified; add a K5 (peel needed) and the
  // certificate must vanish while sizes still merge.
  GraphBuilder easy(12);
  for (Vertex i = 0; i + 1 < 6; ++i) easy.AddEdge(i, i + 1);       // path
  for (Vertex i = 6; i + 1 < 12; ++i) easy.AddEdge(i, i + 1);      // path
  MisSolution certified = RunPerComponent(
      easy.Build(), [](const Graph& sub) { return RunLinearTime(sub); });
  EXPECT_TRUE(certified.provably_maximum);

  MisSolution mixed = RunPerComponent(
      DisjointUnion(), [](const Graph& sub) { return RunBDOne(sub); });
  EXPECT_FALSE(mixed.provably_maximum);  // the K5 component peels
  EXPECT_GT(mixed.rules.peels, 0u);
}

TEST(PerComponentTest, MatchesWholeGraphRunOnRandomForest) {
  // Forests: both whole-graph and per-component runs are exact, so sizes
  // agree; counters add up consistently.
  Graph g = ErdosRenyiGnm(4000, 2000, /*seed=*/3);  // subcritical: a forest-ish
  MisSolution whole = RunNearLinear(g);
  MisSolution split =
      RunPerComponent(g, [](const Graph& sub) { return RunNearLinear(sub); });
  EXPECT_TRUE(IsMaximalIndependentSet(g, split.in_set));
  if (whole.provably_maximum && split.provably_maximum) {
    EXPECT_EQ(whole.size, split.size);
  }
}

TEST(PerComponentTest, EmptyGraph) {
  Graph g = Graph::FromEdges(5, std::vector<Edge>{});
  MisSolution sol =
      RunPerComponent(g, [](const Graph& sub) { return RunLinearTime(sub); });
  EXPECT_EQ(sol.size, 5u);
  EXPECT_TRUE(sol.provably_maximum);
}

TEST(PerComponentTest, ManyTinyComponentsRunInLinearTime) {
  // Regression for the quadratic extraction: 100k two-vertex components.
  // The old path built a size-n renaming array per component (~2e10 writes
  // here — minutes); the O(n + m) path is a few tens of milliseconds. The
  // bound is deliberately loose for slow CI machines while staying orders
  // of magnitude below the quadratic regime.
  const Vertex pairs = 100000;
  std::vector<Edge> edges;
  edges.reserve(pairs);
  for (Vertex i = 0; i < pairs; ++i) edges.emplace_back(2 * i, 2 * i + 1);
  Graph g = Graph::FromEdges(2 * pairs, edges);

  Timer t;
  MisSolution sol =
      RunPerComponent(g, [](const Graph& sub) { return RunLinearTime(sub); });
  EXPECT_LT(t.Seconds(), 10.0);
  EXPECT_EQ(sol.size, pairs);  // one endpoint per edge
  EXPECT_TRUE(sol.provably_maximum);
  EXPECT_TRUE(IsMaximalIndependentSet(g, sol.in_set));
}

TEST(PerComponentParallelTest, ByteIdenticalToSerialAcrossThreadCounts) {
  const struct {
    const char* name;
    Graph graph;
  } instances[] = {
      {"forest", ErdosRenyiGnm(4000, 2000, /*seed=*/3)},
      {"cliques", ScatteredCliques(40, 5)},
      {"two-core-mixture", TwoCoreMixture()},
      {"disjoint-union", DisjointUnion()},
  };
  const std::function<MisSolution(const Graph&)> algos[] = {
      [](const Graph& sub) { return RunBDOne(sub); },
      [](const Graph& sub) { return RunBDTwo(sub); },
      [](const Graph& sub) { return RunLinearTime(sub); },
      [](const Graph& sub) { return RunNearLinear(sub); },
  };
  for (const auto& inst : instances) {
    SCOPED_TRACE(inst.name);
    for (size_t a = 0; a < std::size(algos); ++a) {
      SCOPED_TRACE("algo " + std::to_string(a));
      const MisSolution serial = RunPerComponent(inst.graph, algos[a]);
      EXPECT_TRUE(IsMaximalIndependentSet(inst.graph, serial.in_set));
      for (const char* threads : {"1", "2", "8"}) {
        SCOPED_TRACE(std::string("threads ") + threads);
        ScopedThreads scoped(threads);
        const MisSolution parallel =
            RunPerComponentParallel(inst.graph, algos[a]);
        ExpectIdenticalSolutions(serial, parallel);
      }
    }
  }
}

TEST(PerComponentParallelTest, AgreesWithWholeGraphSolveWhenCertified) {
  // Per-component and whole-graph runs both certify on reducible inputs;
  // the certified sizes must agree (both are alpha).
  const Graph graphs[] = {ErdosRenyiGnm(4000, 2000, /*seed=*/3),
                          TwoCoreMixture()};
  for (const Graph& g : graphs) {
    const MisSolution whole = RunNearLinear(g);
    ScopedThreads scoped("8");
    const MisSolution split = RunPerComponentParallel(
        g, [](const Graph& sub) { return RunNearLinear(sub); });
    EXPECT_TRUE(IsMaximalIndependentSet(g, split.in_set));
    EXPECT_EQ(whole.provably_maximum, split.provably_maximum);
    if (whole.provably_maximum) {
      EXPECT_EQ(whole.size, split.size);
    }
  }
}

TEST(PerComponentParallelTest, SolverEntryPointsMatchSerialRunner) {
  Graph g = DisjointUnion();
  ScopedThreads scoped("8");
  const PerComponentOptions parallel{.parallel = true};
  ExpectIdenticalSolutions(RunBDOnePerComponent(g),
                           RunBDOnePerComponent(g, parallel));
  ExpectIdenticalSolutions(RunBDTwoPerComponent(g),
                           RunBDTwoPerComponent(g, parallel));
  ExpectIdenticalSolutions(RunLinearTimePerComponent(g),
                           RunLinearTimePerComponent(g, parallel));
  ExpectIdenticalSolutions(RunNearLinearPerComponent(g),
                           RunNearLinearPerComponent(g, parallel));
}

TEST(PerComponentParallelTest, PropagatesLowestComponentError) {
  // Components in id order (= order of smallest vertex): an edge (2
  // vertices), a P4 (4 vertices), a triangle (3 vertices). The algorithm
  // fails on every component with >= 3 vertices; the error surfaced must
  // be the lowest component id's (the P4), whatever the schedule — match
  // the ingest runner's deterministic first-error contract.
  GraphBuilder b(9);
  b.AddEdge(0, 1);
  for (Vertex i = 2; i < 5; ++i) b.AddEdge(i, i + 1);
  b.AddEdge(6, 7);
  b.AddEdge(7, 8);
  b.AddEdge(6, 8);
  Graph g = b.Build();

  ScopedThreads scoped("8");
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      RunPerComponentParallel(g, [](const Graph& sub) -> MisSolution {
        if (sub.NumVertices() >= 3) {
          throw std::runtime_error("failed on component of size " +
                                   std::to_string(sub.NumVertices()));
        }
        return RunLinearTime(sub);
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed on component of size 4");
    }
  }
}

}  // namespace
}  // namespace rpmis
