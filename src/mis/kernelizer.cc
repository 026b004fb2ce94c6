#include "mis/kernelizer.h"

#include <algorithm>
#include <map>

#include "mis/compaction.h"
#include "mis/lp_reduction.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "support/fast_set.h"

namespace rpmis {

Kernelizer::Kernelizer(const Graph& g, const KernelizerOptions& options)
    : options_(options), alive_(g.NumVertices(), 1),
      in_worklist_(g.NumVertices(), 0) {
  adj_.resize(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    auto nb = g.Neighbors(v);
    adj_[v].assign(nb.begin(), nb.end());
    Touch(v);
  }
}

bool Kernelizer::HasEdge(Vertex u, Vertex v) const {
  const auto& small = Degree(u) <= Degree(v) ? adj_[u] : adj_[v];
  const Vertex target = Degree(u) <= Degree(v) ? v : u;
  return std::binary_search(small.begin(), small.end(), target);
}

void Kernelizer::Touch(Vertex v) {
  if (!Alive(v) || in_worklist_[v]) return;
  in_worklist_[v] = 1;
  worklist_.push_back(v);
}

void Kernelizer::TouchNeighborhood(Vertex v) {
  for (Vertex w : adj_[v]) Touch(w);
}

void Kernelizer::DetachFromNeighbors(Vertex v) {
  for (Vertex w : adj_[v]) {
    auto& list = adj_[w];
    auto it = std::lower_bound(list.begin(), list.end(), v);
    RPMIS_DASSERT(it != list.end() && *it == v);
    list.erase(it);
    Touch(w);
  }
}

void Kernelizer::ExcludeVertex(Vertex v) {
  RPMIS_DASSERT(Alive(v));
  TouchNeighborhood(v);
  DetachFromNeighbors(v);
  alive_[v] = 0;
  adj_[v].clear();
  ops_.push_back({OpKind::kExclude, v, 0, 0});
}

void Kernelizer::IncludeVertex(Vertex v) {
  RPMIS_DASSERT(Alive(v));
  // Exclude the whole neighbourhood first, then take v.
  while (!adj_[v].empty()) ExcludeVertex(adj_[v].back());
  alive_[v] = 0;
  ops_.push_back({OpKind::kInclude, v, 0, 0});
  ++alpha_offset_;
}

void Kernelizer::FoldDegreeTwo(Vertex u, Vertex v, Vertex w) {
  // alpha(G) = alpha(G / {u,v,w}) + 1; w becomes the supervertex.
  RPMIS_DASSERT(Degree(u) == 2 && !HasEdge(v, w));
  ops_.push_back({OpKind::kFold, u, v, w});
  ++alpha_offset_;
  ++rules_.degree_two_folding;

  // Remove u.
  DetachFromNeighbors(u);
  alive_[u] = 0;
  adj_[u].clear();

  // Merge v's adjacency into w's; re-point x's entries from v to w.
  std::vector<Vertex> merged;
  merged.reserve(adj_[v].size() + adj_[w].size());
  std::merge(adj_[v].begin(), adj_[v].end(), adj_[w].begin(), adj_[w].end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  for (Vertex x : adj_[v]) {
    auto& list = adj_[x];
    auto it = std::lower_bound(list.begin(), list.end(), v);
    RPMIS_DASSERT(it != list.end() && *it == v);
    list.erase(it);
    auto wt = std::lower_bound(list.begin(), list.end(), w);
    if (wt == list.end() || *wt != w) list.insert(wt, w);
    Touch(x);
  }
  alive_[v] = 0;
  adj_[v].clear();
  adj_[w] = std::move(merged);
  Touch(w);
  TouchNeighborhood(w);
}

void Kernelizer::ContractInto(Vertex a, Vertex b) {
  RPMIS_DASSERT(Alive(a) && Alive(b) && a != b);
  RPMIS_DASSERT(!HasEdge(a, b));
  std::vector<Vertex> merged;
  merged.reserve(adj_[a].size() + adj_[b].size());
  std::merge(adj_[a].begin(), adj_[a].end(), adj_[b].begin(), adj_[b].end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  for (Vertex x : adj_[b]) {
    auto& list = adj_[x];
    auto it = std::lower_bound(list.begin(), list.end(), b);
    RPMIS_DASSERT(it != list.end() && *it == b);
    list.erase(it);
    auto at = std::lower_bound(list.begin(), list.end(), a);
    if (at == list.end() || *at != a) list.insert(at, a);
    Touch(x);
  }
  alive_[b] = 0;
  adj_[b].clear();
  adj_[a] = std::move(merged);
  Touch(a);
  TouchNeighborhood(a);
}

void Kernelizer::FoldTwins(Vertex u, Vertex v) {
  // Twins u, v (non-adjacent, N(u) = N(v) = {n1, n2, n3}, no edge inside):
  // alpha(G) = alpha(G / {n1,n2,n3} \ {u,v}) + 2.
  RPMIS_DASSERT(Degree(u) == 3 && adj_[u] == adj_[v]);
  const Vertex n1 = adj_[u][0];
  const Vertex n2 = adj_[u][1];
  const Vertex n3 = adj_[u][2];
  ops_.push_back({OpKind::kTwinFoldMembers, n2, n3, n1});
  ops_.push_back({OpKind::kTwinFoldPair, u, v, n1});
  alpha_offset_ += 2;
  rules_.twin += 2;

  DetachFromNeighbors(u);
  alive_[u] = 0;
  adj_[u].clear();
  DetachFromNeighbors(v);
  alive_[v] = 0;
  adj_[v].clear();
  // n1..n3 are pairwise non-adjacent (no inner edge) and stay so during
  // the contractions, which only import NEIGHBOURS of the merged vertex.
  ContractInto(n1, n2);
  ContractInto(n1, n3);
}

bool Kernelizer::TryDegreeRules(Vertex v) {
  const uint32_t d = Degree(v);
  if (d == 0) {
    IncludeVertex(v);
    ++rules_.degree_zero;
    return true;
  }
  if (options_.degree_one && d == 1) {
    // Some maximum IS takes v: drop its neighbour, then take v.
    ExcludeVertex(adj_[v][0]);
    IncludeVertex(v);  // v is isolated now
    ++rules_.degree_one;
    return true;
  }
  if (options_.degree_two && d == 2) {
    const Vertex a = adj_[v][0];
    const Vertex b = adj_[v][1];
    if (HasEdge(a, b)) {
      ExcludeVertex(a);
      ExcludeVertex(b);
      IncludeVertex(v);
      ++rules_.degree_two_isolation;
    } else {
      FoldDegreeTwo(v, a, b);
    }
    return true;
  }
  return false;
}

bool Kernelizer::TryDominance(Vertex u) {
  // Is u dominated by some neighbour v (N(v) \ {u} subset of N(u))?
  thread_local FastSet mark;
  if (mark.Universe() < alive_.size()) mark.Resize(alive_.size());
  mark.Clear();
  for (Vertex x : adj_[u]) mark.Insert(x);
  for (Vertex v : adj_[u]) {
    if (Degree(v) > Degree(u)) continue;
    bool dominates = true;
    for (Vertex x : adj_[v]) {
      if (x != u && !mark.Contains(x)) {
        dominates = false;
        break;
      }
    }
    if (dominates) {
      ExcludeVertex(u);
      ++rules_.dominance;
      return true;
    }
  }
  return false;
}

bool Kernelizer::TryUnconfined(Vertex v) {
  // Xiao–Nagamochi confinement test (simplified, as in [1]): grow S from
  // {v}; any extender u (|N(u) ∩ S| = 1) with no outside neighbourhood
  // proves v unconfined; a unique outside neighbour joins S.
  thread_local FastSet in_s, in_ns;
  if (in_s.Universe() < alive_.size()) {
    in_s.Resize(alive_.size());
    in_ns.Resize(alive_.size());
  }
  in_s.Clear();
  in_ns.Clear();
  std::vector<Vertex> s_closed{v};  // S ∪ N(S) members for scanning
  in_s.Insert(v);
  in_ns.Insert(v);
  for (Vertex w : adj_[v]) {
    in_ns.Insert(w);
    s_closed.push_back(w);
  }

  for (int guard = 0; guard < 32; ++guard) {  // bounded growth
    Vertex best_extra = kInvalidVertex;
    bool found_null_extender = false;
    // Scan candidate extenders: neighbours of S.
    for (size_t i = 0; i < s_closed.size() && !found_null_extender; ++i) {
      const Vertex u = s_closed[i];
      if (in_s.Contains(u)) continue;
      // u must see S exactly once.
      uint32_t s_hits = 0;
      for (Vertex x : adj_[u]) {
        if (in_s.Contains(x)) ++s_hits;
      }
      if (s_hits != 1) continue;
      // Outside neighbourhood N(u) \ N[S].
      Vertex extra = kInvalidVertex;
      uint32_t extra_count = 0;
      for (Vertex x : adj_[u]) {
        if (!in_ns.Contains(x)) {
          extra = x;
          if (++extra_count > 1) break;
        }
      }
      if (extra_count == 0) {
        found_null_extender = true;
      } else if (extra_count == 1 && best_extra == kInvalidVertex) {
        best_extra = extra;
      }
    }
    if (found_null_extender) {
      ExcludeVertex(v);
      ++rules_.unconfined;
      return true;
    }
    if (best_extra == kInvalidVertex) return false;  // confined
    // Grow S by the unique outside neighbour.
    in_s.Insert(best_extra);
    in_ns.Insert(best_extra);
    if (!in_ns.Contains(best_extra)) s_closed.push_back(best_extra);
    s_closed.push_back(best_extra);
    for (Vertex w : adj_[best_extra]) {
      if (!in_ns.Contains(w)) {
        in_ns.Insert(w);
        s_closed.push_back(w);
      }
    }
  }
  return false;
}

bool Kernelizer::RunTwinPass() {
  // Partial twin rule: u, v non-adjacent, N(u) == N(v) with |N| == 3 and
  // at least one edge inside N(u): take u and v, drop N(u).
  std::map<std::vector<Vertex>, Vertex> by_neighborhood;
  bool changed = false;
  for (Vertex v = 0; v < alive_.size(); ++v) {
    if (!Alive(v) || Degree(v) != 3) continue;
    auto [it, inserted] = by_neighborhood.emplace(adj_[v], v);
    if (inserted) continue;
    const Vertex u = it->second;
    if (u == kInvalidVertex || !Alive(u) || adj_[u] != adj_[v]) {
      it->second = v;
      continue;
    }
    // Twins found; u, v are non-adjacent (v is not in N(v) = N(u)).
    const std::vector<Vertex> nbrs = adj_[v];
    const bool inner_edge = HasEdge(nbrs[0], nbrs[1]) ||
                            HasEdge(nbrs[0], nbrs[2]) ||
                            HasEdge(nbrs[1], nbrs[2]);
    if (inner_edge) {
      // An edge inside N(u) means at most one of N(u) can be in any IS,
      // while {u, v} contributes two: take both.
      for (Vertex x : nbrs) {
        if (Alive(x)) ExcludeVertex(x);
      }
      RPMIS_DASSERT(Degree(v) == 0 && Degree(u) == 0);
      IncludeVertex(v);
      IncludeVertex(u);
      rules_.twin += 2;
    } else {
      FoldTwins(u, v);
    }
    it->second = kInvalidVertex;  // consumed; later matches re-pair
    changed = true;
  }
  return changed;
}

bool Kernelizer::RunLpPass() {
  const VertexRenaming ren = BuildRenaming(alive_);
  const std::vector<Vertex>& ids = ren.kept;
  const LpReduction lp = SolveLpReduction(BuildCompactGraph(
      ren, [this](Vertex v) { return std::span<const Vertex>(adj_[v]); }));
  if (lp.num_include == 0 && lp.num_exclude == 0) return false;
  rules_.lp += lp.num_include + lp.num_exclude;
  // Excluding all x=0 vertices isolates the x=1 vertices, which then join
  // I through the degree-0 rule; do it directly for clarity.
  for (Vertex c = 0; c < ids.size(); ++c) {
    if (lp.exclude[c] && Alive(ids[c])) ExcludeVertex(ids[c]);
  }
  for (Vertex c = 0; c < ids.size(); ++c) {
    if (lp.include[c] && Alive(ids[c])) {
      RPMIS_DASSERT(Degree(ids[c]) == 0);
      IncludeVertex(ids[c]);
    }
  }
  return true;
}

void Kernelizer::ProcessWorklist() {
  while (!worklist_.empty()) {
    const Vertex v = worklist_.back();
    worklist_.pop_back();
    in_worklist_[v] = 0;
    if (!Alive(v)) continue;
    if (TryDegreeRules(v)) continue;
    if (options_.dominance && TryDominance(v)) continue;
    if (options_.unconfined && TryUnconfined(v)) continue;
  }
}

void Kernelizer::Run() {
  RPMIS_ASSERT(!ran_);
  ran_ = true;
  obs::TraceSpan run_span(obs::Trace(), "kernelizer");
  while (true) {
    {
      obs::TraceSpan span(obs::Trace(), "kernelizer.worklist");
      ProcessWorklist();
    }
    bool changed = false;
    if (options_.twin) {
      obs::TraceSpan span(obs::Trace(), "kernelizer.twin");
      changed = RunTwinPass() || changed;
    }
    ProcessWorklist();
    if (options_.lp) {
      obs::TraceSpan span(obs::Trace(), "kernelizer.lp");
      changed = RunLpPass() || changed;
    }
    ProcessWorklist();
    if (!changed) break;
  }
  // Materialize the kernel: the alive vertices in increasing id order.
  orig_to_kernel_.assign(alive_.size(), kInvalidVertex);
  kernel_to_orig_.clear();
  for (Vertex v = 0; v < alive_.size(); ++v) {
    if (!Alive(v)) continue;
    orig_to_kernel_[v] = static_cast<Vertex>(kernel_to_orig_.size());
    kernel_to_orig_.push_back(v);
  }
  std::vector<Edge> edges;
  for (const Vertex v : kernel_to_orig_) {
    for (Vertex w : adj_[v]) {
      if (v < w) edges.emplace_back(orig_to_kernel_[v], orig_to_kernel_[w]);
    }
  }
  kernel_ = Graph::FromEdges(static_cast<Vertex>(kernel_to_orig_.size()), edges);
}

std::vector<uint8_t> Kernelizer::Lift(const std::vector<uint8_t>& kernel_in_set) const {
  RPMIS_ASSERT(ran_);
  RPMIS_ASSERT(kernel_in_set.size() == kernel_.NumVertices());
  std::vector<uint8_t> out(alive_.size(), 0);
  for (Vertex k = 0; k < kernel_.NumVertices(); ++k) {
    if (kernel_in_set[k]) out[kernel_to_orig_[k]] = 1;
  }
  for (size_t i = ops_.size(); i-- > 0;) {
    const Op& op = ops_[i];
    switch (op.kind) {
      case OpKind::kInclude:
        out[op.a] = 1;
        break;
      case OpKind::kExclude:
        break;
      case OpKind::kFold:
        // Fold (u; merged=b, rep=c): if the supervertex is in I, both
        // original endpoints are; otherwise the middle vertex u is.
        if (out[op.c]) {
          out[op.b] = 1;
        } else {
          out[op.a] = 1;
        }
        break;
      case OpKind::kTwinFoldPair:
        // Replayed before kTwinFoldMembers (it was pushed later): if the
        // neighbourhood supervertex was NOT taken, the twins are.
        if (!out[op.c]) {
          out[op.a] = 1;
          out[op.b] = 1;
        }
        break;
      case OpKind::kTwinFoldMembers:
        if (out[op.c]) {
          out[op.a] = 1;
          out[op.b] = 1;
        }
        break;
    }
  }
  return out;
}

}  // namespace rpmis
