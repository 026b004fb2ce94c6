#include "graph/adjacency_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.h"
#include "support/random.h"

namespace rpmis {
namespace {

std::set<Vertex> NeighborSet(const AdjacencyGraph& g, Vertex v) {
  auto n = g.NeighborsOf(v);
  return {n.begin(), n.end()};
}

TEST(AdjacencyGraphTest, MirrorsInitialGraph) {
  Graph g = ErdosRenyiGnm(40, 100, /*seed=*/1);
  AdjacencyGraph dyn(g);
  EXPECT_EQ(dyn.NumAliveEdges(), g.NumEdges());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(dyn.Degree(v), g.Degree(v));
    auto nb = g.Neighbors(v);
    EXPECT_EQ(NeighborSet(dyn, v), std::set<Vertex>(nb.begin(), nb.end()));
  }
}

TEST(AdjacencyGraphTest, RemoveVertexUpdatesBothSides) {
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  AdjacencyGraph dyn(g);
  std::vector<Vertex> touched;
  dyn.RemoveVertex(2, &touched);
  EXPECT_FALSE(dyn.IsAlive(2));
  EXPECT_EQ(dyn.NumAliveEdges(), 1u);
  EXPECT_EQ(dyn.Degree(0), 1u);
  EXPECT_EQ(dyn.Degree(1), 1u);
  EXPECT_EQ(dyn.Degree(3), 0u);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<Vertex>{0, 1, 3}));
  EXPECT_TRUE(dyn.HasEdge(0, 1));
  EXPECT_FALSE(dyn.HasEdge(0, 2));
}

TEST(AdjacencyGraphTest, ContractMergesNeighborhoods) {
  // 0-1, 0-2, 1-3, 2-3, 2-4. Contract 1 into 2:
  // N(2) becomes {0, 3, 4}; edge (1,3) re-points; duplicate (x,2) drops.
  Graph g =
      Graph::FromEdges(5, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}});
  AdjacencyGraph dyn(g);
  std::vector<Vertex> touched;
  dyn.ContractInto(1, 2, &touched);
  EXPECT_FALSE(dyn.IsAlive(1));
  EXPECT_EQ(NeighborSet(dyn, 2), (std::set<Vertex>{0, 3, 4}));
  EXPECT_EQ(dyn.Degree(2), 3u);
  EXPECT_EQ(dyn.Degree(0), 1u);  // lost the duplicate edge to 1
  EXPECT_EQ(dyn.Degree(3), 1u);  // edge re-pointed, degree unchanged
  EXPECT_EQ(dyn.NumAliveEdges(), 3u);
}

TEST(AdjacencyGraphTest, ContractRemovesEdgeBetweenPair) {
  Graph g = Graph::FromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  AdjacencyGraph dyn(g);
  dyn.ContractInto(0, 1, nullptr);
  EXPECT_EQ(NeighborSet(dyn, 1), (std::set<Vertex>{2}));
  EXPECT_EQ(dyn.Degree(2), 1u);
  EXPECT_EQ(dyn.NumAliveEdges(), 1u);
}

// Randomized model check: a long random sequence of removals and
// contractions must agree with a naive set-based reference model.
TEST(AdjacencyGraphTest, RandomOperationsMatchReferenceModel) {
  const Vertex n = 60;
  Graph g = ErdosRenyiGnm(n, 180, /*seed=*/99);
  AdjacencyGraph dyn(g);
  std::vector<std::set<Vertex>> model(n);
  for (Vertex v = 0; v < n; ++v) {
    auto nb = g.Neighbors(v);
    model[v] = {nb.begin(), nb.end()};
  }
  std::vector<uint8_t> alive(n, 1);
  Rng rng(123);
  for (int step = 0; step < 50; ++step) {
    // Pick two distinct alive vertices.
    std::vector<Vertex> pool;
    for (Vertex v = 0; v < n; ++v) {
      if (alive[v]) pool.push_back(v);
    }
    if (pool.size() < 2) break;
    const Vertex a = pool[rng.NextBounded(pool.size())];
    Vertex b = a;
    while (b == a) b = pool[rng.NextBounded(pool.size())];

    if (rng.NextBool(0.5)) {
      dyn.RemoveVertex(a, nullptr);
      alive[a] = 0;
      for (Vertex w : model[a]) model[w].erase(a);
      model[a].clear();
    } else {
      dyn.ContractInto(a, b, nullptr);
      alive[a] = 0;
      for (Vertex w : model[a]) {
        model[w].erase(a);
        if (w != b) {
          model[w].insert(b);
          model[b].insert(w);
        }
      }
      model[a].clear();
      model[b].erase(a);
    }
    uint64_t model_edges = 0;
    for (Vertex v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      ASSERT_EQ(dyn.Degree(v), model[v].size()) << "vertex " << v;
      ASSERT_EQ(NeighborSet(dyn, v), model[v]) << "vertex " << v;
      model_edges += model[v].size();
    }
    ASSERT_EQ(dyn.NumAliveEdges(), model_edges / 2);
  }
}

}  // namespace
}  // namespace rpmis
