// Properties of the dominance reduction proven in Appendix A.3:
//   * Lemma 5.2: v dominates u  iff  delta(v,u) = d(v) - 1;
//   * the isolated-vertex / degree-one / degree-two-isolation rules are
//     special cases of dominance;
//   * Lemma A.1 (order-obliviousness): if v dom u and u dom w, then v dom
//     w, and still after removing u;
//   * mutual dominance exists (Figure 14) and removing either side is
//     exact.
// It also checks OnePassDominance, the prepass that applies the rule once
// in decreasing-degree order, against a set-based reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "exact/brute_force.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "mis/near_linear.h"
#include "support/random.h"

namespace rpmis {
namespace {

// Reference dominance: v dominates u iff (v,u) in E and N(v)\{u} ⊆ N(u).
bool Dominates(const Graph& g, Vertex v, Vertex u) {
  if (!g.HasEdge(v, u)) return false;
  for (Vertex x : g.Neighbors(v)) {
    if (x != u && !g.HasEdge(x, u)) return false;
  }
  return true;
}

TEST(DominanceTest, Lemma52TriangleCountCharacterization) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = ErdosRenyiGnm(40, 160, seed);
    auto delta = EdgeTriangleCounts(g);
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      auto nb = g.Neighbors(v);
      for (size_t i = 0; i < nb.size(); ++i) {
        const bool by_counts = delta[g.EdgeBegin(v) + i] == g.Degree(v) - 1;
        EXPECT_EQ(by_counts, Dominates(g, v, nb[i]))
            << v << " -> " << nb[i] << " seed " << seed;
      }
    }
  }
}

TEST(DominanceTest, CapturesDegreeOneReduction) {
  // Degree-one u with neighbour v: u dominates v.
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {1, 2}, {1, 3}});
  EXPECT_TRUE(Dominates(g, 0, 1));
}

TEST(DominanceTest, CapturesIsolatedVertexReduction) {
  // u whose neighbourhood is a clique (Figure 13(a)): u dominates every
  // neighbour.
  Graph g = Graph::FromEdges(
      5, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {1, 4}});
  for (Vertex v : {1u, 2u, 3u}) EXPECT_TRUE(Dominates(g, 0, v));
}

TEST(DominanceTest, CapturesDegreeTwoIsolation) {
  // Degree-two u with adjacent neighbours v, w: u dominates both.
  Graph g = Graph::FromEdges(5, std::vector<Edge>{{0, 1}, {0, 2}, {1, 2},
                                                  {1, 3}, {2, 4}});
  EXPECT_TRUE(Dominates(g, 0, 1));
  EXPECT_TRUE(Dominates(g, 0, 2));
}

TEST(DominanceTest, DegreeThreeConfigurations) {
  // Figure 13(b): deg-3 u with a triangle among its neighbours dominates
  // all three. Figure 13(c): two edges -> u dominates the middle one.
  Graph b = Graph::FromEdges(
      6, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                           {1, 4}, {2, 5}});
  for (Vertex v : {1u, 2u, 3u}) EXPECT_TRUE(Dominates(b, 0, v));

  Graph c = Graph::FromEdges(
      7, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3},
                           {1, 4}, {3, 5}, {2, 6}});
  EXPECT_TRUE(Dominates(c, 0, 2));   // the middle neighbour
  EXPECT_FALSE(Dominates(c, 0, 1));  // the outer ones are not dominated
  EXPECT_FALSE(Dominates(c, 0, 3));
}

TEST(DominanceTest, LemmaA1Transitivity) {
  uint64_t verified = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    // Dense graphs so chains v dom u dom w actually occur.
    Graph g = ErdosRenyiGnm(12, 52, seed);
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      for (Vertex u : g.Neighbors(v)) {
        if (!Dominates(g, v, u)) continue;
        for (Vertex w : g.Neighbors(u)) {
          if (w == v || !Dominates(g, u, w)) continue;
          // Lemma A.1: v must dominate w...
          EXPECT_TRUE(Dominates(g, v, w)) << v << "," << u << "," << w;
          // ...and still after removing u.
          std::vector<Vertex> rest;
          std::vector<Vertex> map;
          for (Vertex x = 0; x < g.NumVertices(); ++x) {
            if (x != u) rest.push_back(x);
          }
          Graph without = g.InducedSubgraph(rest, &map);
          EXPECT_TRUE(Dominates(without, map[v], map[w]));
          ++verified;
        }
      }
    }
  }
  EXPECT_GT(verified, 5u) << "fixture too sparse to exercise the lemma";
}

TEST(DominanceTest, MutualDominanceIsExactEitherWay) {
  // Figure 14 shape: twins u, v adjacent with identical closed
  // neighbourhoods dominate each other; removing either preserves alpha.
  Graph g = Graph::FromEdges(
      6, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 4}, {3, 5}});
  ASSERT_TRUE(Dominates(g, 0, 1));
  ASSERT_TRUE(Dominates(g, 1, 0));
  const uint64_t alpha = BruteForceAlpha(g);
  for (Vertex drop : {0u, 1u}) {
    std::vector<Vertex> rest;
    for (Vertex x = 0; x < g.NumVertices(); ++x) {
      if (x != drop) rest.push_back(x);
    }
    EXPECT_EQ(BruteForceAlpha(g.InducedSubgraph(rest)), alpha);
  }
}

TEST(DominanceTest, RemovingDominatedPreservesAlpha) {
  // Property form of Lemma 5.1 on random graphs.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = ErdosRenyiGnm(20, 70, seed);
    const uint64_t alpha = BruteForceAlpha(g);
    for (Vertex u = 0; u < g.NumVertices(); ++u) {
      bool dominated = false;
      for (Vertex v : g.Neighbors(u)) {
        if (Dominates(g, v, u)) dominated = true;
      }
      if (!dominated) continue;
      std::vector<Vertex> rest;
      for (Vertex x = 0; x < g.NumVertices(); ++x) {
        if (x != u) rest.push_back(x);
      }
      EXPECT_EQ(BruteForceAlpha(g.InducedSubgraph(rest)), alpha)
          << "removing dominated " << u << " changed alpha, seed " << seed;
    }
  }
}

// The state OnePassDominance reads and writes, as NearLinear seeds it.
struct PrepassState {
  std::vector<uint8_t> alive, in_set;
  std::vector<uint32_t> deg;
  uint64_t removed = 0;

  explicit PrepassState(const Graph& g)
      : alive(g.NumVertices(), 1), in_set(g.NumVertices(), 0), deg(g.NumVertices()) {
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      deg[v] = g.Degree(v);
      if (deg[v] == 0) in_set[v] = 1;
    }
  }
};

// Reference one-pass dominance: the same decreasing-degree order (ties by
// id), with N(v) \ {u} ⊆ N(u) checked on alive-neighbour sets.
PrepassState ReferenceOnePassDominance(const Graph& g) {
  PrepassState st(g);
  std::vector<Vertex> order(g.NumVertices());
  std::iota(order.begin(), order.end(), Vertex{0});
  std::stable_sort(order.begin(), order.end(), [&g](Vertex a, Vertex b) {
    return g.Degree(a) > g.Degree(b);
  });
  const auto alive_nbrs = [&](Vertex x) {
    std::set<Vertex> out;
    for (Vertex y : g.Neighbors(x)) {
      if (st.alive[y]) out.insert(y);
    }
    return out;
  };
  for (Vertex u : order) {
    if (!st.alive[u] || st.deg[u] == 0) continue;
    const std::set<Vertex> nu = alive_nbrs(u);
    bool dominated = false;
    for (Vertex v : nu) {
      if (st.deg[v] > st.deg[u]) continue;
      std::set<Vertex> nv = alive_nbrs(v);
      nv.erase(u);
      if (std::includes(nu.begin(), nu.end(), nv.begin(), nv.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) continue;
    ++st.removed;
    st.alive[u] = 0;
    for (Vertex x : nu) {
      if (--st.deg[x] == 0) st.in_set[x] = 1;
    }
  }
  return st;
}

// Returns the number of removals, so callers can check the case is not vacuous.
uint64_t ExpectPrepassMatchesReference(const Graph& g, const std::string& label) {
  PrepassState got(g);
  got.removed = OnePassDominance(g, got.alive, got.deg, got.in_set);
  const PrepassState want = ReferenceOnePassDominance(g);
  EXPECT_EQ(got.removed, want.removed) << label;
  EXPECT_EQ(got.alive, want.alive) << label;
  EXPECT_EQ(got.deg, want.deg) << label;
  EXPECT_EQ(got.in_set, want.in_set) << label;
  return got.removed;
}

Graph RandomlyRelabelled(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vertex> perm(g.NumVertices());
  std::iota(perm.begin(), perm.end(), Vertex{0});
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Edge> edges;
  for (const auto& [u, v] : g.CollectEdges()) edges.emplace_back(perm[u], perm[v]);
  return Graph::FromEdges(g.NumVertices(), edges);
}

TEST(OnePassDominanceTest, MatchesReferenceOnPowerLaw) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    // Native ids put the hubs first; relabelling breaks the id/degree link.
    const Graph g = ChungLuPowerLaw(3000, 2.1, 20, seed);
    const std::string tag = ", seed " + std::to_string(seed);
    EXPECT_GT(ExpectPrepassMatchesReference(g, "native" + tag), 0u);
    EXPECT_GT(ExpectPrepassMatchesReference(RandomlyRelabelled(g, seed),
                                            "relabelled" + tag),
              0u);
  }
}

TEST(OnePassDominanceTest, MatchesReferenceOnGnm) {
  uint64_t removed = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    removed += ExpectPrepassMatchesReference(ErdosRenyiGnm(300, 600, seed),
                                             "gnm, seed " + std::to_string(seed));
  }
  EXPECT_GT(removed, 0u);
}

TEST(OnePassDominanceTest, MatchesReferenceOnStarCliqueAndPath) {
  // A leaf dominates the star's centre; equal-degree clique vertices
  // dominate each other until one is left; path ends dominate inwards.
  EXPECT_EQ(ExpectPrepassMatchesReference(StarGraph(6), "star"), 1u);
  EXPECT_EQ(ExpectPrepassMatchesReference(CompleteGraph(6), "clique"), 5u);
  EXPECT_GT(ExpectPrepassMatchesReference(PathGraph(9), "path"), 0u);
}

}  // namespace
}  // namespace rpmis
