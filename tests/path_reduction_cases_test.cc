// Case-by-case tests for the degree-two path reductions (Lemma 4.1),
// each on a purpose-built graph where exactly that case fires first, with
// exactness verified against brute force and alpha arithmetic checked per
// the lemma's statements.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "exact/brute_force.h"
#include "graph/generators.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/verify.h"

namespace rpmis {
namespace {

void ExpectExact(const Graph& g, const char* what) {
  const uint64_t alpha = BruteForceAlpha(g);
  MisSolution lt = RunLinearTime(g);
  EXPECT_TRUE(IsMaximalIndependentSet(g, lt.in_set)) << what;
  EXPECT_EQ(lt.size, alpha) << "LinearTime on " << what;
  MisSolution nl = RunNearLinear(g);
  EXPECT_EQ(nl.size, alpha) << "NearLinear on " << what;
}

// Helper: two "anchors" of degree >= 3 built from a K4 each, joined by a
// degree-two path of the requested length. Anchor A uses vertices 0..3
// (0 is the attachment v), anchor B uses 4..7 (4 is w).
Graph PathBetweenAnchors(uint32_t path_len, bool vw_edge) {
  GraphBuilder b(8 + path_len);
  for (Vertex i = 0; i < 4; ++i) {
    for (Vertex j = i + 1; j < 4; ++j) {
      b.AddEdge(i, j);
      b.AddEdge(4 + i, 4 + j);
    }
  }
  if (vw_edge) b.AddEdge(0, 4);
  Vertex prev = 0;
  for (uint32_t i = 0; i < path_len; ++i) {
    b.AddEdge(prev, 8 + i);
    prev = 8 + i;
  }
  b.AddEdge(prev, 4);
  return b.Build();
}

TEST(PathReductionCases, DegreeTwoCycle) {
  // A lone cycle plus a far-away clique: alpha = floor(c/2) + 1.
  for (uint32_t c : {3u, 4u, 7u, 10u}) {
    GraphBuilder b(c + 4);
    for (Vertex i = 0; i < c; ++i) b.AddEdge(i, (i + 1) % c);
    for (Vertex i = 0; i < 4; ++i) {
      for (Vertex j = i + 1; j < 4; ++j) b.AddEdge(c + i, c + j);
    }
    Graph g = b.Build();
    MisSolution sol = RunLinearTime(g);
    // The cycle resolves exactly by the cycle rule; the K4 needs peeling
    // (so no certificate), but its contribution of 1 is still forced.
    EXPECT_EQ(sol.size, c / 2 + 1) << "cycle " << c;
    EXPECT_GE(sol.UpperBound(), sol.size);
  }
}

TEST(PathReductionCases, Case1CommonAttachment) {
  // v == w: a degree-two path looping back to the same anchor vertex.
  GraphBuilder b(8);
  for (Vertex i = 0; i < 4; ++i) {
    for (Vertex j = i + 1; j < 4; ++j) b.AddEdge(i, j);
  }
  b.AddEdge(0, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  b.AddEdge(7, 0);  // back to vertex 0
  Graph g = b.Build();
  MisSolution sol = RunLinearTime(g);
  EXPECT_EQ(sol.size, BruteForceAlpha(g));
  EXPECT_GE(sol.rules.degree_two_path, 1u);
  EXPECT_TRUE(sol.provably_maximum);
}

TEST(PathReductionCases, Case2OddAdjacentAttachments) {
  for (uint32_t len : {1u, 3u, 5u}) {
    Graph g = PathBetweenAnchors(len, /*vw_edge=*/true);
    ExpectExact(g, "case 2");
    // Lemma: alpha(G) = alpha(G \ {v, w}) + ceil(len/2) for this family.
    MisSolution sol = RunLinearTime(g);
    EXPECT_TRUE(sol.provably_maximum) << len;
  }
}

TEST(PathReductionCases, Case3OddNonAdjacentAttachments) {
  for (uint32_t len : {3u, 5u, 7u}) {
    Graph g = PathBetweenAnchors(len, /*vw_edge=*/false);
    ExpectExact(g, "case 3");
  }
}

TEST(PathReductionCases, Case4EvenAdjacentAttachments) {
  for (uint32_t len : {2u, 4u, 6u}) {
    Graph g = PathBetweenAnchors(len, /*vw_edge=*/true);
    ExpectExact(g, "case 4");
  }
}

TEST(PathReductionCases, Case5EvenNonAdjacentAttachments) {
  for (uint32_t len : {2u, 4u, 6u}) {
    Graph g = PathBetweenAnchors(len, /*vw_edge=*/false);
    ExpectExact(g, "case 5");
  }
}

TEST(PathReductionCases, AlphaArithmeticAcrossLengths) {
  // Lemma 4.1's alpha bookkeeping: for the anchor family, adding two more
  // path vertices raises alpha by exactly one.
  for (bool vw_edge : {false, true}) {
    for (uint32_t len = 1; len + 2 <= 9; ++len) {
      const uint64_t a1 = BruteForceAlpha(PathBetweenAnchors(len, vw_edge));
      const uint64_t a2 = BruteForceAlpha(PathBetweenAnchors(len + 2, vw_edge));
      EXPECT_EQ(a2, a1 + 1) << "len " << len << " vw " << vw_edge;
    }
  }
}

TEST(PathReductionCases, ChainedRewiresStayExact) {
  // The regression shape behind the deferred-replay fix: spokes of
  // degree-two paths between MANY anchors arranged in a ring, so case-3/5
  // rewires create virtual edges that later path reductions consume.
  for (uint32_t spoke : {2u, 3u}) {
    const uint32_t anchors = 5;
    GraphBuilder b(anchors + anchors * spoke);
    Vertex next = anchors;
    for (uint32_t a = 0; a < anchors; ++a) {
      Vertex prev = a;
      for (uint32_t i = 0; i < spoke; ++i) {
        b.AddEdge(prev, next);
        prev = next++;
      }
      b.AddEdge(prev, (a + 1) % anchors);
    }
    Graph g = b.Build();
    const uint64_t alpha = BruteForceAlpha(g);
    for (const MisSolution& sol : {RunLinearTime(g), RunNearLinear(g)}) {
      EXPECT_TRUE(IsMaximalIndependentSet(g, sol.in_set));
      if (sol.provably_maximum) {
        EXPECT_EQ(sol.size, alpha) << "spoke " << spoke;
      } else {
        EXPECT_LE(sol.size, alpha);
        EXPECT_GE(sol.UpperBound(), alpha);
      }
    }
  }
}

TEST(PathReductionCases, SingletonDismissalIsNotForgotten) {
  // A degree-two vertex between two non-adjacent degree-3 anchors is
  // dismissed once; the instance must still be solved exactly when later
  // reductions re-expose it.
  Graph g = PathBetweenAnchors(1, /*vw_edge=*/false);
  ExpectExact(g, "singleton");
}

// NearLinear's sweep filters (DESIGN.md §3) on graphs built so that a
// path reduction changes them and a later deletion depends on them. Both
// prepasses are off, so the main loop meets the graph as built. The body
// is K_{3,3} on {0,1,2} x {3,4,5}, which is triangle-free, and vertex 6
// sits on a path between two adjacent vertices. The degree-two worklist
// pops the highest id first, so the path under test (ids 7 and up) is
// reduced first; case 2 on vertex 6 then deletes its two neighbours, and
// their neighbours are swept. The selectors were recorded before the
// sweep skip existed.
struct FilterCase {
  MisSolution sol;
  std::vector<Vertex> selected;
};

FilterCase RunFilterCase(Vertex n, std::vector<std::pair<Vertex, Vertex>> edges) {
  GraphBuilder b(n);
  for (Vertex i = 0; i < 3; ++i) {
    for (Vertex j = 3; j < 6; ++j) b.AddEdge(i, j);
  }
  for (const auto& [x, y] : edges) b.AddEdge(x, y);
  const Graph g = b.Build();
  NearLinearOptions options;
  options.one_pass_dominance = false;
  options.lp_reduction = false;
  FilterCase out{RunNearLinear(g, nullptr, options), {}};
  EXPECT_TRUE(VerifyMis(g, out.sol.in_set));
  for (Vertex v = 0; v < n; ++v) {
    if (out.sol.in_set[v]) out.selected.push_back(v);
  }
  return out;
}

TEST(PathReductionCases, NearLinearCase5DegreeOneAttachment) {
  // Leaf 7, path 8-9, attachment 10 (adjacent to 0 and 1): case 5 joins
  // the leaf to 10, which gains a pendant. Deleting 0 must then sweep 10,
  // because the leaf dominates it.
  const FilterCase c =
      RunFilterCase(11, {{0, 6}, {6, 3}, {7, 8}, {8, 9}, {9, 10}, {10, 0}, {10, 1}});
  EXPECT_EQ(c.sol.rules.degree_two_path, 3u);
  EXPECT_EQ(c.selected, (std::vector<Vertex>{4, 5, 6, 7, 9}));
}

TEST(PathReductionCases, NearLinearCase4ThenDegreeOneAttachment) {
  // Path 8-9 between the adjacent 7 and 10: case 4 drops both to degree
  // two (an attachment has degree >= 3 before case 4, so it cannot leave
  // one at degree one). The next walk runs 7-10 from leaf 11 to 12, and
  // case 5 gives 12 a pendant; deleting 0 must then sweep 12.
  const FilterCase c = RunFilterCase(
      13, {{0, 6}, {6, 3}, {7, 8}, {8, 9}, {9, 10}, {7, 10}, {7, 11}, {10, 12},
           {12, 0}, {12, 1}});
  EXPECT_EQ(c.sol.rules.degree_two_path, 4u);
  EXPECT_EQ(c.selected, (std::vector<Vertex>{4, 5, 6, 8, 10, 11}));
}

TEST(PathReductionCases, NearLinearCase5ClosesSweptTriangle) {
  // Path 8-9 between 7 and 10, which share neighbour 11: case 5 closes
  // the triangle (7, 10, 11) in a triangle-free graph. Vertex 6 sits
  // between 7 and 3, so case 2 deletes 7, and that deletion must sweep 11
  // to drop δ(11, 10) back to zero.
  const FilterCase c = RunFilterCase(
      12, {{7, 6}, {6, 3}, {7, 8}, {8, 9}, {9, 10}, {7, 11}, {10, 11}, {7, 3},
           {10, 4}, {11, 0}, {11, 1}});
  EXPECT_EQ(c.sol.rules.degree_two_path, 2u);
  EXPECT_EQ(c.selected, (std::vector<Vertex>{0, 1, 2, 6, 8, 10}));
}

}  // namespace
}  // namespace rpmis
