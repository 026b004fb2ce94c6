#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"

namespace rpmis {
namespace {

TEST(ConnectedComponentsTest, CountsComponents) {
  // Two triangles plus an isolated vertex.
  Graph g = Graph::FromEdges(
      7, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  ComponentInfo cc = ConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 3u);
  EXPECT_EQ(cc.component_id[0], cc.component_id[2]);
  EXPECT_NE(cc.component_id[0], cc.component_id[3]);
  EXPECT_EQ(cc.members.size(), 7u);
  EXPECT_EQ(cc.offsets.back(), 7u);
  // Members of each component carry that component's id.
  for (Vertex c = 0; c < cc.num_components; ++c) {
    for (uint64_t i = cc.offsets[c]; i < cc.offsets[c + 1]; ++i) {
      EXPECT_EQ(cc.component_id[cc.members[i]], c);
    }
  }
}

TEST(ConnectedComponentsTest, SingleComponent) {
  Graph g = CycleGraph(10);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(ConnectedComponentsTest, MembersAreSortedWithinEachComponent) {
  // The header contract ComponentExtractor relies on: each Members(c)
  // slice is in increasing vertex id order.
  Graph g = ErdosRenyiGnm(500, 260, /*seed=*/7);  // subcritical, many comps
  ComponentInfo cc = ConnectedComponents(g);
  EXPECT_GT(cc.num_components, 1u);
  for (Vertex c = 0; c < cc.num_components; ++c) {
    const auto members = cc.Members(c);
    for (size_t i = 1; i < members.size(); ++i) {
      EXPECT_LT(members[i - 1], members[i]);
    }
  }
}

TEST(ComponentExtractorTest, MatchesInducedSubgraph) {
  Graph g = ErdosRenyiGnm(300, 200, /*seed=*/11);
  const ComponentExtractor extractor(g);
  uint64_t total_vertices = 0, total_edges = 0;
  for (Vertex c = 0; c < extractor.NumComponents(); ++c) {
    const auto members = extractor.Members(c);
    const Graph sub = extractor.Extract(c);
    ASSERT_EQ(sub.NumVertices(), members.size());
    // Same graph as the generic (slow-path) InducedSubgraph.
    std::vector<Vertex> old_to_new;
    const Graph reference = g.InducedSubgraph(members, &old_to_new);
    EXPECT_EQ(sub.NumEdges(), reference.NumEdges());
    EXPECT_EQ(sub.CollectEdges(), reference.CollectEdges());
    // Local ids are slice positions.
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(extractor.LocalId(members[i]), i);
      EXPECT_EQ(old_to_new[members[i]], i);
    }
    total_vertices += members.size();
    total_edges += sub.NumEdges();
  }
  EXPECT_EQ(total_vertices, g.NumVertices());
  EXPECT_EQ(total_edges, g.NumEdges());
}

TEST(ComponentExtractorTest, EmptyAndEdgelessGraphs) {
  const ComponentExtractor none(Graph{});
  EXPECT_EQ(none.NumComponents(), 0u);
  Graph isolated = Graph::FromEdges(3, std::vector<Edge>{});
  const ComponentExtractor three(isolated);
  ASSERT_EQ(three.NumComponents(), 3u);
  for (Vertex c = 0; c < 3; ++c) {
    const Graph sub = three.Extract(c);
    EXPECT_EQ(sub.NumVertices(), 1u);
    EXPECT_EQ(sub.NumEdges(), 0u);
  }
}

TEST(EdgeIdLimitTest, OverflowIsDiagnosable) {
  // 2^32-1 directed edges no longer fit 32-bit ids; the error must name
  // the offending count (the limit itself is unreachable with test-sized
  // graphs, hence the exposed checker).
  EXPECT_NO_THROW(CheckEdgeIdsFit32Bits((1ull << 32) - 2));
  try {
    CheckEdgeIdsFit32Bits(9876543210ull);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("9876543210"), std::string::npos) << what;
    EXPECT_NE(what.find("32-bit"), std::string::npos) << what;
  }
}

// Graphs that stress the (degree, id) orientation of EdgeTriangleCounts
// and the sweep of ReverseEdgeIndex: two G(n, m), skewed Chung-Lu (hubs at
// low ids), a star (one hub, no triangle), a graph with isolated vertices,
// and a 6-regular circulant where every degree ties and the id alone orders
// the endpoints.
std::vector<std::pair<std::string, Graph>> SlotIndexGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("gnm5", ErdosRenyiGnm(40, 120, /*seed=*/5));
  graphs.emplace_back("gnm11", ErdosRenyiGnm(30, 120, /*seed=*/11));
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    graphs.emplace_back("chunglu" + std::to_string(seed),
                        ChungLuPowerLaw(3000, 2.1, 20.0, seed));
  }
  graphs.emplace_back("star", StarGraph(50));
  const std::vector<Edge> two_triangles{{1, 3}, {3, 5}, {1, 5}, {5, 8}, {8, 10}, {5, 10}};
  graphs.emplace_back("isolated", Graph::FromEdges(12, two_triangles));
  std::vector<Edge> circulant;
  const Vertex n = 40;
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex step : {1u, 2u, 5u}) circulant.emplace_back(i, (i + step) % n);
  }
  graphs.emplace_back("regular", Graph::FromEdges(n, circulant));
  return graphs;
}

TEST(ReverseEdgeIndexTest, MirrorsAreInvolution) {
  for (const auto& [name, g] : SlotIndexGraphs()) {
    const std::vector<uint32_t> rev = ReverseEdgeIndex(g);
    ASSERT_EQ(rev.size(), 2 * g.NumEdges()) << name;
    for (Vertex v = 0; v < g.NumVertices(); ++v) {
      for (uint64_t e = g.EdgeBegin(v); e < g.EdgeEnd(v); ++e) {
        const uint32_t r = rev[e];
        ASSERT_EQ(rev[r], e) << name;
        ASSERT_EQ(g.EdgeTarget(r), v) << name;
      }
    }
  }
}

TEST(TriangleCountsTest, TriangleGraph) {
  Graph g = CompleteGraph(3);
  auto delta = EdgeTriangleCounts(g);
  for (uint32_t d : delta) EXPECT_EQ(d, 1u);
  EXPECT_EQ(CountTriangles(g), 1u);
}

TEST(TriangleCountsTest, CompleteGraphCounts) {
  // K5: every edge is in 3 triangles; total C(5,3) = 10.
  Graph g = CompleteGraph(5);
  auto delta = EdgeTriangleCounts(g);
  for (uint32_t d : delta) EXPECT_EQ(d, 3u);
  EXPECT_EQ(CountTriangles(g), 10u);
}

TEST(TriangleCountsTest, TriangleFreeGraph) {
  Graph g = CompleteBipartite(4, 5);
  EXPECT_EQ(CountTriangles(g), 0u);
  Graph p = PathGraph(20);
  EXPECT_EQ(CountTriangles(p), 0u);
}

TEST(TriangleCountsTest, MatchesBruteForceOnRandomGraph) {
  for (const auto& [name, g] : SlotIndexGraphs()) {
    const std::vector<uint32_t> delta = EdgeTriangleCounts(g);
    ASSERT_EQ(delta.size(), 2 * g.NumEdges()) << name;
    uint64_t total = 0;
    for (Vertex u = 0; u < g.NumVertices(); ++u) {
      const auto un = g.Neighbors(u);
      for (uint64_t e = g.EdgeBegin(u); e < g.EdgeEnd(u); ++e) {
        const auto vn = g.Neighbors(g.EdgeTarget(e));
        std::vector<Vertex> common;
        std::set_intersection(un.begin(), un.end(), vn.begin(), vn.end(),
                              std::back_inserter(common));
        ASSERT_EQ(delta[e], common.size())
            << name << " " << u << "-" << g.EdgeTarget(e);
        total += common.size();
      }
    }
    EXPECT_EQ(CountTriangles(g), total / 6) << name;
  }
}

TEST(CoreDecompositionTest, CliqueCores) {
  Graph g = CompleteGraph(6);
  CoreDecomposition cd = ComputeCores(g);
  EXPECT_EQ(cd.degeneracy, 5u);
  for (uint32_t c : cd.core) EXPECT_EQ(c, 5u);
}

TEST(CoreDecompositionTest, TreeIsOneDegenerate) {
  Graph g = BinaryTree(31);
  CoreDecomposition cd = ComputeCores(g);
  EXPECT_EQ(cd.degeneracy, 1u);
  EXPECT_EQ(cd.order.size(), 31u);
}

TEST(CoreDecompositionTest, MixedCores) {
  // Triangle (2-core) with a pendant path (1-core).
  Graph g = Graph::FromEdges(5, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  CoreDecomposition cd = ComputeCores(g);
  EXPECT_EQ(cd.core[0], 2u);
  EXPECT_EQ(cd.core[1], 2u);
  EXPECT_EQ(cd.core[2], 2u);
  EXPECT_EQ(cd.core[3], 1u);
  EXPECT_EQ(cd.core[4], 1u);
}

TEST(DegreeStatsTest, Basic) {
  Graph g = StarGraph(4);
  DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.min_degree, 1u);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 8.0 / 5.0);
  EXPECT_EQ(s.num_degree_le2, 4u);
}

TEST(ClusteringTest, PlantedCoreAddsTriangles) {
  // The global coefficient is dominated by hub wedges, so compare raw
  // triangle counts: the planted cliques must add a visible surplus.
  Graph pure = ChungLuPowerLaw(20000, 2.1, 6.0, 3);
  Graph cored = PowerLawWithCore(20000, 2.1, 6.0, 4000, 6.0, 3);
  EXPECT_GT(CountTriangles(cored), CountTriangles(pure) + 500);
}

}  // namespace
}  // namespace rpmis
