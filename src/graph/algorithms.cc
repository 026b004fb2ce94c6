#include "graph/algorithms.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ds/bucket_queue.h"

namespace rpmis {

ComponentInfo ConnectedComponents(const Graph& g) {
  const Vertex n = g.NumVertices();
  ComponentInfo info;
  info.component_id.assign(n, kInvalidVertex);

  std::vector<Vertex> queue;
  queue.reserve(n);
  for (Vertex s = 0; s < n; ++s) {
    if (info.component_id[s] != kInvalidVertex) continue;
    const Vertex c = info.num_components++;
    info.component_id[s] = c;
    queue.push_back(s);
    size_t head = queue.size() - 1;
    while (head < queue.size()) {
      const Vertex v = queue[head++];
      for (Vertex w : g.Neighbors(v)) {
        if (info.component_id[w] == kInvalidVertex) {
          info.component_id[w] = c;
          queue.push_back(w);
        }
      }
    }
  }

  // Group members by component with a counting sort; scanning v in
  // increasing order is what makes each slice sorted (see the header
  // contract). The offsets array doubles as the placement cursor and is
  // shifted back afterwards, so no extra size-C scratch is needed.
  info.offsets.assign(static_cast<size_t>(info.num_components) + 1, 0);
  for (Vertex v = 0; v < n; ++v) ++info.offsets[info.component_id[v] + 1];
  for (size_t c = 1; c < info.offsets.size(); ++c) info.offsets[c] += info.offsets[c - 1];
  info.members.resize(n);
  for (Vertex v = 0; v < n; ++v) info.members[info.offsets[info.component_id[v]]++] = v;
  for (size_t c = info.offsets.size() - 1; c > 0; --c) info.offsets[c] = info.offsets[c - 1];
  info.offsets[0] = 0;
  return info;
}

ComponentExtractor::ComponentExtractor(const Graph& g, ComponentInfo cc)
    : g_(&g), cc_(std::move(cc)) {
  RPMIS_ASSERT(cc_.component_id.size() == g.NumVertices());
  local_id_.resize(g.NumVertices());
  for (Vertex c = 0; c < cc_.num_components; ++c) {
    const uint64_t begin = cc_.offsets[c];
    for (uint64_t i = begin; i < cc_.offsets[c + 1]; ++i) {
      local_id_[cc_.members[i]] = static_cast<Vertex>(i - begin);
    }
  }
}

Graph ComponentExtractor::Extract(Vertex c) const {
  const std::span<const Vertex> members = cc_.Members(c);
  std::vector<uint64_t> offsets(members.size() + 1);
  offsets[0] = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    offsets[i + 1] = offsets[i] + g_->Degree(members[i]);
  }
  std::vector<Vertex> neighbors;
  neighbors.reserve(offsets.back());
  // Every neighbour is in the same component, and the monotonic renaming
  // keeps each (sorted) adjacency slice sorted, so the arrays below are a
  // valid CSR as-is — no normalization pass.
  for (Vertex v : members) {
    for (Vertex w : g_->Neighbors(v)) neighbors.push_back(local_id_[w]);
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

void CheckEdgeIdsFit32Bits(uint64_t directed_edges) {
  // Strict: every slot id must stay below kInvalidVertex, which
  // EdgeTriangleCounts uses as its "unmarked slot" sentinel.
  if (directed_edges >= static_cast<uint64_t>(kInvalidVertex)) {
    throw std::runtime_error(
        "rpmis::algorithms: graph too large for 32-bit edge ids (" +
        std::to_string(directed_edges) + " directed edges, limit " +
        std::to_string(static_cast<uint64_t>(kInvalidVertex) - 1) + ")");
  }
}

std::vector<uint32_t> ReverseEdgeIndex(const Graph& g) {
  const uint64_t directed = 2 * g.NumEdges();
  CheckEdgeIdsFit32Bits(directed);
  std::vector<uint32_t> rev(directed);
  // next[w]: w's first slot not yet paired. Visiting v in increasing order
  // reaches w's lower neighbours in the order N(w) lists them, so the slot
  // of (w, v) for w > v is always next[w].
  std::vector<uint32_t> next(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    next[v] = static_cast<uint32_t>(g.EdgeBegin(v));
  }
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (uint64_t e = g.EdgeBegin(v); e < g.EdgeEnd(v); ++e) {
      const Vertex w = g.EdgeTarget(e);
      if (w < v) continue;
      const uint32_t r = next[w]++;
      RPMIS_DASSERT(g.EdgeTarget(r) == v);
      rev[e] = r;
      rev[r] = static_cast<uint32_t>(e);
    }
  }
  return rev;
}

std::vector<uint32_t> EdgeTriangleCounts(const Graph& g) {
  return EdgeTriangleCounts(g, ReverseEdgeIndex(g));
}

std::vector<uint32_t> EdgeTriangleCounts(const Graph& g,
                                         std::span<const uint32_t> rev) {
  const uint64_t directed = 2 * g.NumEdges();
  CheckEdgeIdsFit32Bits(directed);
  RPMIS_ASSERT(rev.size() == directed);
  const Vertex n = g.NumVertices();
  // Orient each edge from the lower to the higher (degree, id) rank and keep
  // only the out-slots: out-degrees are then O(sqrt(m)), hubs included.
  const auto ranks_below = [&g](Vertex a, Vertex b) {
    const uint32_t da = g.Degree(a), db = g.Degree(b);
    return da < db || (da == db && a < b);
  };
  std::vector<uint32_t> out_begin(static_cast<size_t>(n) + 1, 0);
  std::vector<Vertex> out_targets(directed / 2);
  std::vector<uint32_t> out_slots(directed / 2);
  for (Vertex u = 0; u < n; ++u) {
    uint32_t pos = out_begin[u];
    for (uint64_t e = g.EdgeBegin(u); e < g.EdgeEnd(u); ++e) {
      const Vertex v = g.EdgeTarget(e);
      if (!ranks_below(u, v)) continue;
      out_targets[pos] = v;
      out_slots[pos++] = static_cast<uint32_t>(e);
    }
    out_begin[u + 1] = pos;
  }
  // Each triangle u < v < w (by rank) is found once, at u: mark[w] holds
  // the slot (u, w) while u is processed, and each out-neighbour v of u
  // probes its own out-list against the marks. All six slots are credited.
  std::vector<uint32_t> delta(directed, 0);
  std::vector<uint32_t> mark(n, kInvalidVertex);
  for (Vertex u = 0; u < n; ++u) {
    const uint32_t begin = out_begin[u], end = out_begin[u + 1];
    for (uint32_t i = begin; i < end; ++i) mark[out_targets[i]] = out_slots[i];
    for (uint32_t i = begin; i < end; ++i) {
      const Vertex v = out_targets[i];
      for (uint32_t j = out_begin[v]; j < out_begin[v + 1]; ++j) {
        const uint32_t uw = mark[out_targets[j]];
        if (uw == kInvalidVertex) continue;
        for (const uint32_t e : {out_slots[i], out_slots[j], uw}) {
          ++delta[e];
          ++delta[rev[e]];
        }
      }
    }
    for (uint32_t i = begin; i < end; ++i) mark[out_targets[i]] = kInvalidVertex;
  }
  return delta;
}

uint64_t CountTriangles(const Graph& g) {
  const std::vector<uint32_t> delta = EdgeTriangleCounts(g);
  uint64_t total = 0;
  for (uint32_t d : delta) total += d;
  // Each triangle is counted once per directed edge of its three edges.
  return total / 6;
}

CoreDecomposition ComputeCores(const Graph& g) {
  const Vertex n = g.NumVertices();
  CoreDecomposition out;
  out.core.assign(n, 0);
  out.order.reserve(n);
  if (n == 0) return out;

  std::vector<uint32_t> deg(n);
  for (Vertex v = 0; v < n; ++v) deg[v] = g.Degree(v);
  BucketQueue q = BucketQueue::FromKeys(deg, g.MaxDegree());
  uint32_t current = 0;
  while (!q.Empty()) {
    const uint32_t k = q.MinKey();
    current = std::max(current, k);
    const Vertex v = q.PopMin();
    out.core[v] = current;
    out.order.push_back(v);
    for (Vertex w : g.Neighbors(v)) {
      if (q.Contains(w) && q.KeyOf(w) > 0) q.Update(w, q.KeyOf(w) - 1);
    }
  }
  out.degeneracy = current;
  return out;
}

DegreeStats ComputeDegreeStats(const Graph& g) {
  DegreeStats s;
  const Vertex n = g.NumVertices();
  if (n == 0) return s;
  s.min_degree = ~0u;
  for (Vertex v = 0; v < n; ++v) {
    const uint32_t d = g.Degree(v);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
    if (d <= 2) ++s.num_degree_le2;
  }
  s.avg_degree = g.AverageDegree();
  return s;
}

std::vector<uint64_t> DegreeHistogram(const Graph& g) {
  std::vector<uint64_t> histogram(g.NumVertices() == 0 ? 0 : g.MaxDegree() + 1, 0);
  for (Vertex v = 0; v < g.NumVertices(); ++v) ++histogram[g.Degree(v)];
  return histogram;
}

double GlobalClusteringCoefficient(const Graph& g) {
  uint64_t wedges = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(CountTriangles(g)) /
         static_cast<double>(wedges);
}

}  // namespace rpmis
