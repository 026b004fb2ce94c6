#include "mis/lp_reduction.h"

#include <algorithm>
#include <limits>

namespace rpmis {

namespace {

// CSR over the left side of a bipartite graph.
struct LeftCsr {
  std::vector<uint64_t> offsets;
  std::vector<Vertex> targets;

  LeftCsr(Vertex left, std::span<const Edge> cross) {
    offsets.assign(static_cast<size_t>(left) + 1, 0);
    for (const auto& [l, r] : cross) {
      (void)r;
      ++offsets[l + 1];
    }
    for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
    targets.resize(cross.size());
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [l, r] : cross) targets[cursor[l]++] = r;
  }
};

constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();

}  // namespace

uint64_t HopcroftKarpMatching(Vertex left, Vertex right,
                              std::span<const Edge> cross_edges,
                              std::vector<Vertex>* match_left,
                              std::vector<Vertex>* match_right) {
  LeftCsr csr(left, cross_edges);
  std::vector<Vertex> ml(left, kInvalidVertex);
  std::vector<Vertex> mr(right, kInvalidVertex);
  std::vector<uint32_t> dist(left);
  std::vector<Vertex> bfs_queue;
  bfs_queue.reserve(left);
  uint64_t matching = 0;

  // Greedy warm start roughly halves the number of phases in practice.
  for (Vertex l = 0; l < left; ++l) {
    for (uint64_t e = csr.offsets[l]; e < csr.offsets[l + 1]; ++e) {
      const Vertex r = csr.targets[e];
      if (mr[r] == kInvalidVertex) {
        ml[l] = r;
        mr[r] = l;
        ++matching;
        break;
      }
    }
  }

  // Layered BFS from free left vertices; true iff an augmenting path exists.
  auto bfs = [&]() {
    bfs_queue.clear();
    for (Vertex l = 0; l < left; ++l) {
      if (ml[l] == kInvalidVertex) {
        dist[l] = 0;
        bfs_queue.push_back(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool found = false;
    for (size_t head = 0; head < bfs_queue.size(); ++head) {
      const Vertex l = bfs_queue[head];
      for (uint64_t e = csr.offsets[l]; e < csr.offsets[l + 1]; ++e) {
        const Vertex r = csr.targets[e];
        const Vertex l2 = mr[r];
        if (l2 == kInvalidVertex) {
          found = true;
        } else if (dist[l2] == kInf) {
          dist[l2] = dist[l] + 1;
          bfs_queue.push_back(l2);
        }
      }
    }
    return found;
  };

  // DFS along the layer structure from the free vertex `root`, augmenting
  // on success. Iterative (augmenting paths can be ~n/2 long): each frame
  // holds a left vertex and its current arc, so arcs are tried in CSR
  // order exactly as a recursive DFS would. A left vertex whose arcs are
  // exhausted leaves the layer structure (dist = kInf) for this phase.
  struct Frame {
    Vertex l;
    uint64_t arc;
  };
  std::vector<Frame> path;
  auto dfs = [&](Vertex root) -> bool {
    path.assign(1, Frame{root, csr.offsets[root]});
    while (!path.empty()) {
      Frame& f = path.back();
      if (f.arc == csr.offsets[f.l + 1]) {
        dist[f.l] = kInf;
        path.pop_back();
        if (!path.empty()) ++path.back().arc;
        continue;
      }
      const Vertex l2 = mr[csr.targets[f.arc]];
      if (l2 == kInvalidVertex) {
        for (const Frame& p : path) {
          const Vertex r = csr.targets[p.arc];
          ml[p.l] = r;
          mr[r] = p.l;
        }
        return true;
      }
      if (dist[l2] == dist[f.l] + 1) {
        path.push_back(Frame{l2, csr.offsets[l2]});
      } else {
        ++f.arc;
      }
    }
    return false;
  };

  while (bfs()) {
    for (Vertex l = 0; l < left; ++l) {
      if (ml[l] == kInvalidVertex && dfs(l)) ++matching;
    }
  }

  if (match_left != nullptr) *match_left = std::move(ml);
  if (match_right != nullptr) *match_right = std::move(mr);
  return matching;
}

LpReduction SolveLpReduction(Vertex n, std::span<const Edge> edges) {
  // Bipartite double cover: each undirected edge (u, v) becomes the two
  // cross edges (u_L, v_R) and (v_L, u_R).
  std::vector<Edge> cross;
  cross.reserve(2 * edges.size());
  for (const auto& [u, v] : edges) {
    cross.emplace_back(u, v);
    cross.emplace_back(v, u);
  }
  std::vector<Vertex> ml, mr;
  LpReduction out;
  out.matching = HopcroftKarpMatching(n, n, cross, &ml, &mr);

  // König: Z = vertices alternately reachable from free LEFT vertices
  // (non-matching edge to the right, matching edge back to the left).
  // Min vertex cover of the double cover: (L \ Z_L) ∪ (R ∩ Z_R).
  std::vector<uint8_t> zl(n, 0), zr(n, 0);
  LeftCsr csr(n, cross);
  std::vector<Vertex> stack;
  for (Vertex l = 0; l < n; ++l) {
    if (ml[l] == kInvalidVertex && !zl[l]) {
      zl[l] = 1;
      stack.push_back(l);
    }
  }
  while (!stack.empty()) {
    const Vertex l = stack.back();
    stack.pop_back();
    for (uint64_t e = csr.offsets[l]; e < csr.offsets[l + 1]; ++e) {
      const Vertex r = csr.targets[e];
      if (zr[r]) continue;
      if (ml[l] == r) continue;  // only non-matching edges leave L
      zr[r] = 1;
      const Vertex l2 = mr[r];
      if (l2 != kInvalidVertex && !zl[l2]) {
        zl[l2] = 1;
        stack.push_back(l2);
      }
    }
  }

  out.include.assign(n, 0);
  out.exclude.assign(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    const bool cover_l = !zl[v];       // v_L in cover
    const bool cover_r = zr[v];        // v_R in cover
    if (cover_l && cover_r) {
      out.exclude[v] = 1;  // y_v = 1  =>  x_v = 0
      ++out.num_exclude;
    } else if (!cover_l && !cover_r) {
      out.include[v] = 1;  // y_v = 0  =>  x_v = 1
      ++out.num_include;
    } else {
      ++out.num_half;
    }
  }
  return out;
}

LpReduction SolveLpReduction(const Graph& g) {
  return SolveLpReduction(g.NumVertices(), g.CollectEdges());
}

}  // namespace rpmis
