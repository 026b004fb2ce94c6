#include "dynamic/update.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <stdexcept>

#include "graph/generators.h"

namespace rpmis {
namespace {

TEST(UpdateStreamTest, ParsesEveryOperation) {
  std::istringstream in(
      "# comment line\n"
      "ae 0 5\n"
      "\n"
      "de 3 4\n"
      "av 1 2 7\n"
      "av\n"
      "dv 9\n");
  const auto updates = ParseUpdateStream(in);
  ASSERT_EQ(updates.size(), 5u);
  EXPECT_EQ(updates[0].kind, UpdateKind::kInsertEdge);
  EXPECT_EQ(updates[0].u, 0u);
  EXPECT_EQ(updates[0].v, 5u);
  EXPECT_EQ(updates[1].kind, UpdateKind::kDeleteEdge);
  EXPECT_EQ(updates[2].kind, UpdateKind::kInsertVertex);
  EXPECT_EQ(updates[2].neighbors, (std::vector<Vertex>{1, 2, 7}));
  EXPECT_EQ(updates[3].kind, UpdateKind::kInsertVertex);
  EXPECT_TRUE(updates[3].neighbors.empty());
  EXPECT_EQ(updates[4].kind, UpdateKind::kDeleteVertex);
  EXPECT_EQ(updates[4].u, 9u);
}

TEST(UpdateStreamTest, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    try {
      ParseUpdateStream(in);
      FAIL() << "expected a parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("ae 0\n", "line 1");
  expect_error("# ok\nxx 1 2\n", "line 2");
  expect_error("de 1 2 3\n", "trailing");
  expect_error("ae 1 1\n", "self-loop");
  expect_error("dv -4\n", "vertex id");
  expect_error("ae 0 99999999999\n", "out of range");
}

TEST(UpdateStreamTest, FormatParseRoundTrip) {
  std::vector<GraphUpdate> updates;
  updates.push_back(GraphUpdate::InsertEdge(3, 11));
  updates.push_back(GraphUpdate::DeleteEdge(0, 2));
  updates.push_back(GraphUpdate::InsertVertex({5, 6}));
  updates.push_back(GraphUpdate::InsertVertex({}));
  updates.push_back(GraphUpdate::DeleteVertex(7));

  std::ostringstream out;
  WriteUpdateStream(out, updates);
  std::istringstream in(out.str());
  const auto parsed = ParseUpdateStream(in);
  ASSERT_EQ(parsed.size(), updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, updates[i].kind) << "update " << i;
    EXPECT_EQ(parsed[i].u, updates[i].u) << "update " << i;
    EXPECT_EQ(parsed[i].v, updates[i].v) << "update " << i;
    EXPECT_EQ(parsed[i].neighbors, updates[i].neighbors) << "update " << i;
  }
}

// Replays a random stream against a reference model and checks every
// update's stated precondition holds at its point in the stream;
// `seen_kinds` counts the updates of each kind.
void ReplayAndCheck(const Graph& g, const std::vector<GraphUpdate>& updates,
                    std::array<size_t, 4>* seen_kinds) {
  std::vector<std::vector<uint8_t>> adj(
      g.NumVertices(), std::vector<uint8_t>(g.NumVertices(), 0));
  const auto has = [&](Vertex a, Vertex b) { return adj[a][b] != 0; };
  const auto set = [&](Vertex a, Vertex b, uint8_t val) {
    adj[a][b] = adj[b][a] = val;
  };
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (Vertex w : g.Neighbors(v)) adj[v][w] = 1;
  }
  std::vector<uint8_t> alive(g.NumVertices(), 1);

  *seen_kinds = {};
  for (const GraphUpdate& u : updates) {
    ++(*seen_kinds)[static_cast<int>(u.kind)];
    switch (u.kind) {
      case UpdateKind::kInsertEdge:
        ASSERT_TRUE(alive[u.u] && alive[u.v]);
        ASSERT_FALSE(has(u.u, u.v));
        set(u.u, u.v, 1);
        break;
      case UpdateKind::kDeleteEdge:
        ASSERT_TRUE(alive[u.u] && alive[u.v]);
        ASSERT_TRUE(has(u.u, u.v));
        set(u.u, u.v, 0);
        break;
      case UpdateKind::kInsertVertex: {
        const Vertex id = static_cast<Vertex>(alive.size());
        for (auto& row : adj) row.push_back(0);
        adj.emplace_back(alive.size() + 1, 0);
        alive.push_back(1);
        for (Vertex w : u.neighbors) {
          ASSERT_LT(w, id);
          ASSERT_TRUE(alive[w]);
          set(id, w, 1);
        }
        break;
      }
      case UpdateKind::kDeleteVertex:
        ASSERT_TRUE(alive[u.u]);
        alive[u.u] = 0;
        for (Vertex w = 0; w < adj.size(); ++w) set(u.u, w, 0);
        break;
    }
  }
}

TEST(UpdateStreamTest, RandomStreamIsValidByConstruction) {
  const Graph g = ErdosRenyiGnp(60, 0.08, /*seed=*/5);
  const auto updates = RandomUpdateStream(g, 400, /*seed=*/17);
  ASSERT_EQ(updates.size(), 400u);
  std::array<size_t, 4> seen_kinds;
  ASSERT_NO_FATAL_FAILURE(ReplayAndCheck(g, updates, &seen_kinds));
  // The default weights exercise every operation kind on a graph this size.
  EXPECT_GT(seen_kinds[0], 0u);
  EXPECT_GT(seen_kinds[1], 0u);
  EXPECT_GT(seen_kinds[2], 0u);
  EXPECT_GT(seen_kinds[3], 0u);

  // Vertex-delete-heavy: most of the graph dies, inserted vertices and
  // edges included, so later edge deletes must skip every edge a vertex
  // delete took with it.
  StreamOptions heavy;
  heavy.delete_vertex_weight = 3.0;
  heavy.insert_vertex_weight = 1.0;
  heavy.max_new_vertex_degree = 8;
  const auto churn = RandomUpdateStream(g, 300, /*seed=*/23, heavy);
  ASSERT_EQ(churn.size(), 300u);
  std::array<size_t, 4> churn_kinds;
  ASSERT_NO_FATAL_FAILURE(ReplayAndCheck(g, churn, &churn_kinds));
  EXPECT_GT(churn_kinds[static_cast<int>(UpdateKind::kDeleteVertex)],
            churn_kinds[static_cast<int>(UpdateKind::kDeleteEdge)]);
  EXPECT_GT(churn_kinds[static_cast<int>(UpdateKind::kInsertVertex)], 0u);
}

TEST(UpdateStreamTest, RandomStreamIsDeterministic) {
  const Graph g = ErdosRenyiGnp(40, 0.1, /*seed=*/3);
  const auto a = RandomUpdateStream(g, 100, /*seed=*/9);
  const auto b = RandomUpdateStream(g, 100, /*seed=*/9);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(FormatUpdate(a[i]), FormatUpdate(b[i])) << "update " << i;
  }
}

}  // namespace
}  // namespace rpmis
