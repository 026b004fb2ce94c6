#include "mis/lp_reduction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/verify.h"
#include "support/random.h"

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

// Reference classification: Kuhn's augmenting-path matching on the double
// cover (left v_L, right v_R, an arc v_L -> w_R per edge), then König's
// alternating reachability from free left vertices. Independent of the
// library's Hopcroft–Karp, warm start and early out.
LpReduction ReferenceLp(const Graph& g) {
  const Vertex n = g.NumVertices();
  std::vector<Vertex> ml(n, kInvalidVertex), mr(n, kInvalidVertex);
  std::vector<uint8_t> seen;
  std::function<bool(Vertex)> augment = [&](Vertex l) {
    for (Vertex r : g.Neighbors(l)) {
      if (seen[r]) continue;
      seen[r] = 1;
      if (mr[r] == kInvalidVertex || augment(mr[r])) {
        ml[l] = r;
        mr[r] = l;
        return true;
      }
    }
    return false;
  };
  LpReduction out;
  for (Vertex l = 0; l < n; ++l) {
    seen.assign(n, 0);
    out.matching += augment(l);
  }
  std::vector<uint8_t> zl(n, 0), zr(n, 0);
  std::vector<Vertex> stack;
  for (Vertex l = 0; l < n; ++l) {
    if (ml[l] == kInvalidVertex) {
      zl[l] = 1;
      stack.push_back(l);
    }
  }
  while (!stack.empty()) {
    const Vertex l = stack.back();
    stack.pop_back();
    for (Vertex r : g.Neighbors(l)) {
      if (ml[l] == r || zr[r]) continue;
      zr[r] = 1;
      if (mr[r] != kInvalidVertex && !zl[mr[r]]) {
        zl[mr[r]] = 1;
        stack.push_back(mr[r]);
      }
    }
  }
  out.include.assign(n, 0);
  out.exclude.assign(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    out.include[v] = zl[v] && !zr[v];
    out.exclude[v] = !zl[v] && zr[v];
    out.num_include += out.include[v];
    out.num_exclude += out.exclude[v];
    out.num_half += !out.include[v] && !out.exclude[v];
  }
  return out;
}

std::vector<Graph> SmallLpGraphs() {
  std::vector<Graph> graphs;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    graphs.push_back(ErdosRenyiGnm(60, 40 + 15 * seed, seed + 7));
    graphs.push_back(ChungLuPowerLaw(300, 2.1, 3.0 + seed, seed + 1));
  }
  return graphs;
}

TEST(LpReductionTest, MatchesKuhnKonigReference) {
  uint64_t fixed = 0;
  for (const Graph& g : SmallLpGraphs()) {
    const LpReduction lp = SolveLpReduction(g);
    const LpReduction ref = ReferenceLp(g);
    EXPECT_EQ(lp.matching, ref.matching);
    EXPECT_EQ(lp.include, ref.include);
    EXPECT_EQ(lp.exclude, ref.exclude);
    EXPECT_EQ(lp.num_half, ref.num_half);
    fixed += ref.num_include + ref.num_exclude;
  }
  EXPECT_GT(fixed, 0u);  // the comparison covers real classifications
}

TEST(LpReductionTest, ClassificationFollowsRelabelling) {
  Rng rng(23);
  for (const Graph& g : SmallLpGraphs()) {
    const Vertex n = g.NumVertices();
    std::vector<Vertex> perm(n);
    std::iota(perm.begin(), perm.end(), Vertex{0});
    std::shuffle(perm.begin(), perm.end(), rng);
    std::vector<Edge> edges;
    for (const auto& [u, v] : g.CollectEdges()) edges.emplace_back(perm[u], perm[v]);
    const LpReduction lp = SolveLpReduction(g);
    const LpReduction relabelled = SolveLpReduction(Graph::FromEdges(n, edges));
    EXPECT_EQ(relabelled.matching, lp.matching);
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(relabelled.include[perm[v]], lp.include[v]) << v;
      EXPECT_EQ(relabelled.exclude[perm[v]], lp.exclude[v]) << v;
    }
  }
}

// Regression: a DFS that recursed once per alternating step overflowed
// the stack on a long augmenting path. The bipartite path
// L_0 - R_0 - L_1 - R_1 - ... - L_k - R_k has the unique perfect matching
// L_i-R_i. The min-degree warm start takes L_0-R_0 (degree 1), then visits
// the degree-2 left vertices in id order, L_k first: L_k takes R_k (the
// right neighbour of least degree), and each later L_i ties between
// R_{i-1} and R_i and takes R_{i-1}, its first arc. That leaves L_1 free
// and the single augmenting path L_1 - R_1 - L_2 - ... - L_{k-1} - R_{k-1},
// about k alternating steps long.
TEST(LpReductionTest, LongPathDoesNotOverflowTheStack) {
  const Vertex k = 1000000;
  const auto left_id = [k](Vertex i) { return i == 0 ? k : k - i; };
  std::vector<Edge> cross{{left_id(0), 0}};
  for (Vertex i = 1; i <= k; ++i) {
    cross.emplace_back(left_id(i), i - 1);
    cross.emplace_back(left_id(i), i);
  }
  std::vector<Vertex> match_left;
  uint64_t warm_start = 0;
  EXPECT_EQ(HopcroftKarpMatching(k + 1, k + 1, cross, &match_left, nullptr,
                                 &warm_start),
            uint64_t{k} + 1);
  EXPECT_EQ(warm_start, uint64_t{k});  // one augmentation was needed
  for (Vertex i = 0; i <= k; ++i) ASSERT_EQ(match_left[left_id(i)], i) << i;
}

}  // namespace
}  // namespace rpmis
