#include "dynamic/update.h"

#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "support/random.h"

namespace rpmis {

namespace {

[[noreturn]] void Fail(size_t line, const std::string& what) {
  throw std::runtime_error("update stream line " + std::to_string(line) + ": " +
                           what);
}

Vertex ParseVertex(const std::string& token, size_t line) {
  if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos) {
    Fail(line, "expected a vertex id, got '" + token + "'");
  }
  unsigned long long value = 0;
  try {
    value = std::stoull(token);
  } catch (const std::exception&) {
    Fail(line, "vertex id out of range: '" + token + "'");
  }
  if (value >= kInvalidVertex) {
    Fail(line, "vertex id out of range: '" + token + "'");
  }
  return static_cast<Vertex>(value);
}

uint64_t EdgeKey(Vertex a, Vertex b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<GraphUpdate> ParseUpdateStream(std::istream& in) {
  std::vector<GraphUpdate> updates;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string op;
    if (!(tokens >> op) || op[0] == '#') continue;
    std::string a, b, extra;
    if (op == "ae" || op == "de") {
      if (!(tokens >> a >> b)) Fail(line_no, op + " needs two vertex ids");
      if (tokens >> extra) Fail(line_no, "trailing tokens after " + op);
      const Vertex u = ParseVertex(a, line_no);
      const Vertex v = ParseVertex(b, line_no);
      if (u == v) Fail(line_no, "self-loop (" + a + ", " + b + ")");
      updates.push_back(op == "ae" ? GraphUpdate::InsertEdge(u, v)
                                   : GraphUpdate::DeleteEdge(u, v));
    } else if (op == "av") {
      std::vector<Vertex> nbs;
      while (tokens >> a) nbs.push_back(ParseVertex(a, line_no));
      updates.push_back(GraphUpdate::InsertVertex(std::move(nbs)));
    } else if (op == "dv") {
      if (!(tokens >> a)) Fail(line_no, "dv needs a vertex id");
      if (tokens >> extra) Fail(line_no, "trailing tokens after dv");
      updates.push_back(GraphUpdate::DeleteVertex(ParseVertex(a, line_no)));
    } else {
      Fail(line_no, "unknown operation '" + op + "'");
    }
  }
  return updates;
}

std::vector<GraphUpdate> LoadUpdateStream(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open update stream: " + path);
  return ParseUpdateStream(in);
}

std::string FormatUpdate(const GraphUpdate& update) {
  switch (update.kind) {
    case UpdateKind::kInsertEdge:
      return "ae " + std::to_string(update.u) + " " + std::to_string(update.v);
    case UpdateKind::kDeleteEdge:
      return "de " + std::to_string(update.u) + " " + std::to_string(update.v);
    case UpdateKind::kInsertVertex: {
      std::string out = "av";
      for (Vertex w : update.neighbors) {
        out += ' ';
        out += std::to_string(w);
      }
      return out;
    }
    case UpdateKind::kDeleteVertex:
      return "dv " + std::to_string(update.u);
  }
  return {};
}

void WriteUpdateStream(std::ostream& out,
                       const std::vector<GraphUpdate>& updates) {
  for (const GraphUpdate& u : updates) out << FormatUpdate(u) << "\n";
}

std::vector<GraphUpdate> RandomUpdateStream(const Graph& g, size_t count,
                                            uint64_t seed,
                                            const StreamOptions& options) {
  Rng rng(seed);

  // Evolving mirror of the stream's effect: alive vertices (swap-remove
  // pool), a key set for O(1) edge-existence checks, and an edge vector
  // for O(1) uniform edge sampling. Deletions leave stale entries in the
  // vector; sampling purges them lazily by re-checking the key set (which
  // IS kept exact, including across vertex deletions). Every edge at v
  // present now is in v's slice of `g` or in added[v], the neighbours
  // the stream gave v; a vertex delete erases those keys (erasing a key
  // that is already gone is a no-op).
  std::vector<Vertex> alive_pool(g.NumVertices());
  std::iota(alive_pool.begin(), alive_pool.end(), Vertex{0});
  std::vector<std::vector<Vertex>> added(g.NumVertices());
  std::vector<Edge> edges = g.CollectEdges();
  std::unordered_set<uint64_t> edge_set;
  edge_set.reserve(edges.size() * 2);
  for (const Edge& e : edges) edge_set.insert(EdgeKey(e.first, e.second));

  const double total_weight =
      options.insert_edge_weight + options.delete_edge_weight +
      options.insert_vertex_weight + options.delete_vertex_weight;

  const auto sample_alive = [&]() {
    return alive_pool[rng.NextBounded(alive_pool.size())];
  };

  std::vector<GraphUpdate> updates;
  updates.reserve(count);
  while (updates.size() < count) {
    double pick = rng.NextDouble() * total_weight;
    UpdateKind kind;
    if ((pick -= options.insert_edge_weight) < 0) {
      kind = UpdateKind::kInsertEdge;
    } else if ((pick -= options.delete_edge_weight) < 0) {
      kind = UpdateKind::kDeleteEdge;
    } else if ((pick -= options.insert_vertex_weight) < 0) {
      kind = UpdateKind::kInsertVertex;
    } else {
      kind = UpdateKind::kDeleteVertex;
    }

    switch (kind) {
      case UpdateKind::kInsertEdge: {
        if (alive_pool.size() < 2) break;
        bool placed = false;
        for (int attempt = 0; attempt < 32 && !placed; ++attempt) {
          const Vertex a = sample_alive();
          const Vertex b = sample_alive();
          if (a == b || edge_set.count(EdgeKey(a, b)) != 0) continue;
          edge_set.insert(EdgeKey(a, b));
          added[a].push_back(b);
          added[b].push_back(a);
          edges.emplace_back(a, b);
          updates.push_back(GraphUpdate::InsertEdge(a, b));
          placed = true;
        }
        break;
      }
      case UpdateKind::kDeleteEdge: {
        bool removed = false;
        while (!edges.empty() && !removed) {
          const size_t i = rng.NextBounded(edges.size());
          const Edge e = edges[i];
          edges[i] = edges.back();
          edges.pop_back();
          const auto it = edge_set.find(EdgeKey(e.first, e.second));
          if (it == edge_set.end()) continue;  // stale (deleted earlier)
          edge_set.erase(it);
          updates.push_back(GraphUpdate::DeleteEdge(e.first, e.second));
          removed = true;
        }
        break;
      }
      case UpdateKind::kInsertVertex: {
        std::vector<Vertex> nbs;
        if (!alive_pool.empty() && options.max_new_vertex_degree > 0) {
          const uint32_t want = static_cast<uint32_t>(
              rng.NextBounded(options.max_new_vertex_degree + 1));
          for (uint32_t i = 0; i < want; ++i) {
            const Vertex w = sample_alive();
            bool dup = false;
            for (Vertex x : nbs) dup |= (x == w);
            if (!dup) nbs.push_back(w);
          }
        }
        const Vertex id = static_cast<Vertex>(added.size());
        added.push_back(nbs);
        alive_pool.push_back(id);
        for (Vertex w : nbs) {
          edge_set.insert(EdgeKey(id, w));
          added[w].push_back(id);
          edges.emplace_back(id, w);
        }
        updates.push_back(GraphUpdate::InsertVertex(std::move(nbs)));
        break;
      }
      case UpdateKind::kDeleteVertex: {
        if (alive_pool.size() <= 2) break;
        const size_t i = rng.NextBounded(alive_pool.size());
        const Vertex v = alive_pool[i];
        alive_pool[i] = alive_pool.back();
        alive_pool.pop_back();
        // Keep the key set exact so stale `edges` entries stay detectable
        // even if an endpoint is later revived (ids are never reused, but
        // revival through a later insert would otherwise resurrect them).
        if (v < g.NumVertices()) {
          for (Vertex w : g.Neighbors(v)) edge_set.erase(EdgeKey(v, w));
        }
        for (Vertex w : added[v]) edge_set.erase(EdgeKey(v, w));
        added[v] = {};
        updates.push_back(GraphUpdate::DeleteVertex(v));
        break;
      }
    }
  }
  return updates;
}

}  // namespace rpmis
