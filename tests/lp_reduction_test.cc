#include "mis/lp_reduction.h"

#include <gtest/gtest.h>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/upper_bounds.h"
#include "mis/verify.h"

namespace rpmis {
namespace {

TEST(HopcroftKarpTest, PerfectMatchingOnBipartite) {
  // K_{3,3}: matching 3.
  std::vector<Edge> cross;
  for (Vertex l = 0; l < 3; ++l) {
    for (Vertex r = 0; r < 3; ++r) cross.emplace_back(l, r);
  }
  EXPECT_EQ(HopcroftKarpMatching(3, 3, cross), 3u);
}

TEST(HopcroftKarpTest, AugmentingPathNeeded) {
  // Greedy alone can mis-match this: L0-{R0}, L1-{R0,R1}.
  std::vector<Edge> cross{{1, 0}, {1, 1}, {0, 0}};
  std::vector<Vertex> ml, mr;
  EXPECT_EQ(HopcroftKarpMatching(2, 2, cross, &ml, &mr), 2u);
  EXPECT_EQ(ml[0], 0u);
  EXPECT_EQ(ml[1], 1u);
}

TEST(HopcroftKarpTest, MatchingIsConsistent) {
  Graph g = ErdosRenyiGnm(40, 80, /*seed=*/17);
  std::vector<Edge> cross;
  for (const auto& [u, v] : g.CollectEdges()) {
    cross.emplace_back(u, v);
    cross.emplace_back(v, u);
  }
  std::vector<Vertex> ml, mr;
  HopcroftKarpMatching(40, 40, cross, &ml, &mr);
  for (Vertex l = 0; l < 40; ++l) {
    if (ml[l] != kInvalidVertex) {
      EXPECT_EQ(mr[ml[l]], l);
    }
  }
}

TEST(LpReductionTest, BipartiteGraphFullyResolved) {
  // On a bipartite graph the LP is integral: no half variables, and the
  // include side is a maximum independent set.
  Graph g = CompleteBipartite(3, 5);
  LpReduction lp = SolveLpReduction(g);
  EXPECT_EQ(lp.num_half, 0u);
  EXPECT_EQ(lp.num_include, 5u);
  EXPECT_EQ(lp.num_exclude, 3u);
  EXPECT_TRUE(IsIndependentSet(g, lp.include));
}

TEST(LpReductionTest, OddCycleIsAllHalf) {
  // C5 has LP optimum 5/2, all-half; nothing can be fixed.
  Graph g = CycleGraph(5);
  LpReduction lp = SolveLpReduction(g);
  EXPECT_EQ(lp.num_half, 5u);
  EXPECT_EQ(lp.num_include, 0u);
  EXPECT_EQ(lp.num_exclude, 0u);
  EXPECT_EQ(lp.Bound(5), 2u);  // floor(5/2) >= alpha = 2
}

TEST(LpReductionTest, IncludeNeighborsAreExcluded) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = ErdosRenyiGnm(40, 60, seed);
    LpReduction lp = SolveLpReduction(g);
    EXPECT_TRUE(IsIndependentSet(g, lp.include));
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      if (!lp.include[v]) continue;
      for (Vertex w : g.Neighbors(v)) {
        EXPECT_TRUE(lp.exclude[w]) << v << "->" << w;
      }
    }
  }
}

TEST(LpReductionTest, NemhauserTrotterPersistency) {
  // alpha(G) = num_include + alpha(G[half]) for every instance.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = ErdosRenyiGnm(20, 30 + 2 * seed, seed);
    LpReduction lp = SolveLpReduction(g);
    std::vector<Vertex> half;
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      if (!lp.include[v] && !lp.exclude[v]) half.push_back(v);
    }
    Graph kernel = g.InducedSubgraph(half);
    EXPECT_EQ(BruteForceAlpha(g), lp.num_include + BruteForceAlpha(kernel))
        << "seed " << seed;
  }
}

TEST(LpReductionTest, BoundDominatesAlpha) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = ErdosRenyiGnm(24, 50, seed + 100);
    LpReduction lp = SolveLpReduction(g);
    EXPECT_GE(lp.Bound(g.NumVertices()), BruteForceAlpha(g));
  }
}

// Regression: on the path k-0-1-...-(k-1) the greedy warm start leaves
// one augmenting path of about k/2 alternating steps. A DFS that recursed
// once per step overflowed the stack here.
TEST(LpReductionTest, LongPathDoesNotOverflowTheStack) {
  const Vertex k = 1000001;
  std::vector<Edge> edges{{k, 0}};
  for (Vertex i = 0; i + 1 < k; ++i) edges.emplace_back(i, i + 1);
  const Graph g = Graph::FromEdges(k + 1, edges);
  const LpReduction lp = SolveLpReduction(g);
  // An even path has a perfect matching, so its double cover does too and
  // every vertex stays at 1/2.
  EXPECT_EQ(lp.matching, uint64_t{k} + 1);
  EXPECT_EQ(lp.num_half, uint64_t{k} + 1);
  EXPECT_EQ(LpUpperBound(g), (uint64_t{k} + 1) / 2);
}

}  // namespace
}  // namespace rpmis
