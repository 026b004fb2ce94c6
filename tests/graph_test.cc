#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "support/random.h"

namespace rpmis {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumVertices(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.0);
}

TEST(GraphTest, FromEdgesBasic) {
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, DropsSelfLoopsAndDuplicates) {
  Graph g = Graph::FromEdges(
      3, std::vector<Edge>{{0, 0}, {0, 1}, {1, 0}, {0, 1}, {1, 2}, {2, 2}});
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
}

/// FromEdges must equal the CSR read off a std::set adjacency: offsets and
/// neighbour array entry for entry.
void ExpectMatchesSetReference(Vertex n, const std::vector<Edge>& edges) {
  std::vector<std::set<Vertex>> ref(n);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    ref[u].insert(v);
    ref[v].insert(u);
  }
  std::vector<uint64_t> offsets{0};
  std::vector<Vertex> neighbors;
  for (const std::set<Vertex>& nbs : ref) {
    neighbors.insert(neighbors.end(), nbs.begin(), nbs.end());
    offsets.push_back(neighbors.size());
  }
  const Graph g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(std::ranges::equal(g.RawOffsets(), offsets)) << "n = " << n;
  EXPECT_TRUE(std::ranges::equal(g.RawNeighbors(), neighbors)) << "n = " << n;
}

/// Random edges with duplicates in both orientations and self-loops mixed
/// in; vertices no edge touches stay isolated.
std::vector<Edge> MessyRandomEdges(Vertex n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (size_t i = 0; i < m; ++i) {
    const auto u = static_cast<Vertex>(rng.NextBounded(n));
    const auto v = static_cast<Vertex>(rng.NextBounded(n));
    edges.emplace_back(u, v);
    if (i % 5 == 0) edges.emplace_back(v, u);   // reversed duplicate
    if (i % 7 == 0) edges.emplace_back(u, v);   // same-way duplicate
    if (i % 11 == 0) edges.emplace_back(u, u);  // self-loop
  }
  return edges;
}

TEST(GraphTest, FromEdgesMatchesSetReferenceOnMessyInput) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    ExpectMatchesSetReference(2000, MessyRandomEdges(2000, 60000, seed));
    // Few vertices, many edges: nearly every entry is a duplicate.
    ExpectMatchesSetReference(6, MessyRandomEdges(6, 500, seed));
    // Sparse: most vertices stay isolated.
    ExpectMatchesSetReference(5000, MessyRandomEdges(5000, 300, seed));
  }
  ExpectMatchesSetReference(0, {});
  ExpectMatchesSetReference(10, {{3, 7}});
  // Only self-loops: no edge survives, every vertex is isolated.
  ExpectMatchesSetReference(4, {{1, 1}, {2, 2}, {1, 1}});
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g = Graph::FromEdges(5, std::vector<Edge>{{4, 2}, {2, 0}, {2, 3}, {2, 1}});
  auto nb = g.Neighbors(2);
  ASSERT_EQ(nb.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(GraphTest, IsolatedVertices) {
  Graph g = Graph::FromEdges(6, std::vector<Edge>{{0, 1}});
  EXPECT_EQ(g.NumVertices(), 6u);
  EXPECT_EQ(g.Degree(5), 0u);
  EXPECT_TRUE(g.Neighbors(5).empty());
}

TEST(GraphTest, CollectEdgesRoundTrip) {
  Graph g = ErdosRenyiGnm(50, 120, /*seed=*/7);
  auto edges = g.CollectEdges();
  EXPECT_EQ(edges.size(), g.NumEdges());
  Graph g2 = Graph::FromEdges(g.NumVertices(), edges);
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  for (const auto& [u, v] : edges) {
    EXPECT_LT(u, v);
    EXPECT_TRUE(g2.HasEdge(u, v));
  }
}

TEST(GraphTest, EdgeIdsAreConsistent) {
  Graph g = ErdosRenyiGnm(30, 60, /*seed=*/3);
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    auto nb = g.Neighbors(v);
    for (size_t i = 0; i < nb.size(); ++i) {
      EXPECT_EQ(g.EdgeTarget(g.EdgeBegin(v) + i), nb[i]);
    }
    EXPECT_EQ(g.EdgeEnd(v) - g.EdgeBegin(v), g.Degree(v));
  }
}

TEST(GraphTest, InducedSubgraph) {
  // Path 0-1-2-3-4; take {0, 2, 3}: only edge 2-3 survives.
  Graph g = PathGraph(5);
  std::vector<Vertex> subset{0, 2, 3};
  std::vector<Vertex> map;
  Graph sub = g.InducedSubgraph(subset, &map);
  EXPECT_EQ(sub.NumVertices(), 3u);
  EXPECT_EQ(sub.NumEdges(), 1u);
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map[1], kInvalidVertex);
  EXPECT_TRUE(sub.HasEdge(map[2], map[3]));
}

TEST(GraphTest, MaxDegreeStar) {
  Graph g = StarGraph(9);
  EXPECT_EQ(g.MaxDegree(), 9u);
  EXPECT_EQ(g.NumEdges(), 9u);
}

TEST(GraphBuilderTest, BuildMatchesFromEdges) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(3, 2);
  b.AddEdge(1, 1);  // dropped
  Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(2, 3));
  // Builder is reusable.
  b.AddEdge(0, 3);
  Graph g2 = b.Build();
  EXPECT_EQ(g2.NumEdges(), 3u);
}

}  // namespace
}  // namespace rpmis
