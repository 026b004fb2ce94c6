#include "mis/lp_reduction.h"

#include <algorithm>
#include <limits>

#include "obs/obs.h"
#include "obs/trace.h"

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

// Hopcroft–Karp over the bipartite graph whose left side is the CSR
// (offsets, targets); targets are right ids in [0, right). `warm_start`,
// when non-null, receives the size of the greedy matching.
uint64_t MaxMatching(std::span<const uint64_t> offsets, std::span<const Vertex> targets,
                     Vertex right, std::vector<Vertex>& ml, std::vector<Vertex>& mr,
                     uint64_t* warm_start = nullptr) {
  const Vertex left = static_cast<Vertex>(offsets.size() - 1);
  ml.assign(left, kInvalidVertex);
  mr.assign(right, kInvalidVertex);
  std::vector<uint32_t> dist(left);
  std::vector<Vertex> bfs_queue;
  bfs_queue.reserve(left);
  uint64_t matching = 0;

  // Min-degree greedy warm start: left vertices in increasing degree order
  // (counting sort), each taking its free right neighbour of least degree.
  // Low-degree vertices have the fewest options, so they choose first. On
  // the double covers of Chung–Lu graphs (150k vertices at β = 3.5, 300k
  // at β = 2.1) this leaves 2 and 5 phases where a CSR-order greedy left
  // 4 and 9.
  {
    std::vector<uint32_t> right_deg(right, 0);
    for (const Vertex r : targets) ++right_deg[r];
    const auto left_deg = [&](Vertex l) { return offsets[l + 1] - offsets[l]; };
    uint64_t max_deg = 0;
    for (Vertex l = 0; l < left; ++l) max_deg = std::max(max_deg, left_deg(l));
    std::vector<uint32_t> bucket(max_deg + 2, 0);
    for (Vertex l = 0; l < left; ++l) ++bucket[left_deg(l) + 1];
    for (size_t i = 1; i < bucket.size(); ++i) bucket[i] += bucket[i - 1];
    std::vector<Vertex> order(left);
    for (Vertex l = 0; l < left; ++l) order[bucket[left_deg(l)]++] = l;
    for (const Vertex l : order) {
      Vertex best = kInvalidVertex;
      for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
        const Vertex r = targets[e];
        if (mr[r] != kInvalidVertex) continue;
        if (best == kInvalidVertex || right_deg[r] < right_deg[best]) best = r;
      }
      if (best == kInvalidVertex) continue;
      ml[l] = best;
      mr[best] = l;
      ++matching;
    }
  }
  if (warm_start != nullptr) *warm_start = matching;

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
      for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
        const Vertex r = targets[e];
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
    path.assign(1, Frame{root, offsets[root]});
    while (!path.empty()) {
      Frame& f = path.back();
      if (f.arc == offsets[f.l + 1]) {
        dist[f.l] = kInf;
        path.pop_back();
        if (!path.empty()) ++path.back().arc;
        continue;
      }
      const Vertex l2 = mr[targets[f.arc]];
      if (l2 == kInvalidVertex) {
        for (const Frame& p : path) {
          const Vertex r = targets[p.arc];
          ml[p.l] = r;
          mr[r] = p.l;
        }
        return true;
      }
      if (dist[l2] == dist[f.l] + 1) {
        path.push_back(Frame{l2, offsets[l2]});
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

  return matching;
}

}  // namespace

uint64_t HopcroftKarpMatching(Vertex left, Vertex right,
                              std::span<const Edge> cross_edges,
                              std::vector<Vertex>* match_left,
                              std::vector<Vertex>* match_right,
                              uint64_t* warm_start) {
  const LeftCsr csr(left, cross_edges);
  std::vector<Vertex> ml, mr;
  const uint64_t matching =
      MaxMatching(csr.offsets, csr.targets, right, ml, mr, warm_start);
  if (match_left != nullptr) *match_left = std::move(ml);
  if (match_right != nullptr) *match_right = std::move(mr);
  return matching;
}

LpReduction SolveLpReduction(const Graph& g) {
  // Bipartite double cover: each directed slot (u, v) of the CSR is the
  // cross edge (u_L, v_R), so the graph's own CSR is the left side.
  const Vertex n = g.NumVertices();
  const std::span<const uint64_t> offsets = g.RawOffsets();
  const std::span<const Vertex> targets = g.RawNeighbors();
  LpReduction out;
  out.include.assign(n, 0);
  out.exclude.assign(n, 0);
  std::vector<Vertex> ml, mr;
  {
    obs::TraceSpan span(obs::Trace(), "lp.match");
    out.matching = MaxMatching(offsets, targets, n, ml, mr);
  }
  // A perfect matching leaves no free left vertex, so Z below is empty and
  // every vertex is ½: nothing to classify.
  if (out.matching == n) {
    out.num_half = n;
    return out;
  }

  // König: Z = vertices alternately reachable from free LEFT vertices
  // (non-matching edge to the right, matching edge back to the left).
  // Min vertex cover of the double cover: (L \ Z_L) ∪ (R ∩ Z_R). Z is the
  // same for every maximum matching (Dulmage–Mendelsohn), so the
  // classification does not depend on which one Hopcroft–Karp found.
  obs::TraceSpan span(obs::Trace(), "lp.cover");
  std::vector<uint8_t> zl(n, 0), zr(n, 0);
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
    for (uint64_t e = offsets[l]; e < offsets[l + 1]; ++e) {
      const Vertex r = targets[e];
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

}  // namespace rpmis
