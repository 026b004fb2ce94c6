#include "mis/working_graph.h"

#include <algorithm>
#include <numeric>

#include "obs/obs.h"
#include "obs/trace.h"
#include "support/assert.h"

namespace rpmis {

namespace {

std::vector<uint32_t> Degrees(const Graph& g) {
  std::vector<uint32_t> deg(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) deg[v] = g.Degree(v);
  return deg;
}

// Composes the mapping stack one level: to_orig becomes new id -> input id.
void ComposeToOrig(const VertexRenaming& renaming, std::vector<Vertex>* to_orig) {
  std::vector<Vertex> composed(renaming.kept.size());
  for (size_t i = 0; i < renaming.kept.size(); ++i) {
    composed[i] = (*to_orig)[renaming.kept[i]];
  }
  *to_orig = std::move(composed);
}

// Renames a worklist in place, preserving order and dropping entries of
// dropped vertices (the lazy staleness checks would skip those anyway).
void RemapWorklist(const VertexRenaming& renaming, std::vector<Vertex>* worklist) {
  size_t out = 0;
  for (size_t i = 0; i < worklist->size(); ++i) {
    const Vertex nv = renaming.to_new[(*worklist)[i]];
    if (nv != kInvalidVertex) (*worklist)[out++] = nv;
  }
  worklist->resize(out);
}

// Rebuilds a CSR restricted to the kept vertices (BuildInducedCsr over
// the CSR's slices). `old_slot_to_new`, when non-null, receives the new
// slot of every old slot (kInvalidVertex if dropped); it requires the old
// slot count to fit 32 bits.
void CompactCsr(const VertexRenaming& renaming, std::span<const uint64_t> offsets,
                std::span<const Vertex> adj, std::vector<uint64_t>* new_offsets,
                std::vector<Vertex>* new_adj,
                std::vector<uint32_t>* old_slot_to_new, CompactionStats* stats) {
  if (old_slot_to_new != nullptr) {
    RPMIS_ASSERT(adj.size() <= static_cast<uint64_t>(kInvalidVertex));
    old_slot_to_new->assign(adj.size(), kInvalidVertex);
  }
  BuildInducedCsr(
      renaming,
      [&](Vertex v) { return adj.subspan(offsets[v], offsets[v + 1] - offsets[v]); },
      new_offsets, new_adj, [&](Vertex v, size_t j, uint64_t pos) {
        if (old_slot_to_new != nullptr) {
          (*old_slot_to_new)[offsets[v] + j] = static_cast<uint32_t>(pos);
        }
      });
  ++stats->compactions;
  stats->vertices_scanned += renaming.to_new.size();
  for (const Vertex v : renaming.kept) {
    stats->slots_scanned += offsets[v + 1] - offsets[v];
  }
  stats->vertices_kept += renaming.kept.size();
  stats->slots_kept += new_adj->size();
}

}  // namespace

WorkingGraph::WorkingGraph(const Graph& g, std::vector<Vertex> to_orig_ids,
                           Adjacency adjacency, const CompactionOptions& options,
                           const char* compact_span, CompactionStats* stats)
    : to_orig(std::move(to_orig_ids)),
      alive(g.NumVertices(), 1),
      deg(Degrees(g)),
      offsets_(g.RawOffsets()),
      adj_(g.RawNeighbors()),
      peel_queue_(deg),
      options_(options),
      baseline_(g.NumVertices()),
      rewirable_(adjacency == Adjacency::kPrivateCopy),
      compact_span_(compact_span),
      stats_(stats) {
  if (to_orig.empty()) {
    to_orig.resize(g.NumVertices());
    std::iota(to_orig.begin(), to_orig.end(), Vertex{0});
  }
  RPMIS_ASSERT(to_orig.size() == g.NumVertices());
  if (rewirable_) {
    own_adj_.assign(adj_.begin(), adj_.end());
    adj_ = own_adj_;
  }
  for (const uint32_t d : deg) active += d > 0;
}

uint64_t WorkingGraph::Rewire(Vertex a, Vertex old_nb, Vertex new_nb) {
  RPMIS_DASSERT(rewirable_);
  for (uint64_t e = Begin(a); e < End(a); ++e) {
    if (own_adj_[e] == old_nb) {
      own_adj_[e] = new_nb;
      return e;
    }
  }
  RPMIS_ASSERT_MSG(false, "rewire target not found");
  return 0;
}

void WorkingGraph::Compact(std::initializer_list<std::vector<Vertex>*> worklists,
                           std::vector<uint32_t>* slot_map) {
  obs::TraceSpan span(obs::Trace(), compact_span_);
  const Vertex cur_n = NumVertices();
  std::vector<uint8_t> keep(cur_n);
  for (Vertex v = 0; v < cur_n; ++v) keep[v] = alive[v] && deg[v] > 0;
  const VertexRenaming ren = BuildRenaming(keep);
  const Vertex new_n = static_cast<Vertex>(ren.kept.size());
  RPMIS_DASSERT(new_n == active);
  // The rebuild reads the current arrays, which may be own_*: fill fresh
  // ones and swap them in afterwards.
  std::vector<uint64_t> new_offsets;
  std::vector<Vertex> new_adj;
  CompactCsr(ren, offsets_, adj_, &new_offsets, &new_adj, slot_map, stats_);
  own_offsets_ = std::move(new_offsets);
  own_adj_ = std::move(new_adj);
  offsets_ = own_offsets_;
  adj_ = own_adj_;
  std::vector<uint32_t> new_deg(new_n);
  for (Vertex i = 0; i < new_n; ++i) new_deg[i] = deg[ren.kept[i]];
  deg = std::move(new_deg);
  alive.assign(new_n, 1);
  ComposeToOrig(ren, &to_orig);
  for (std::vector<Vertex>* worklist : worklists) RemapWorklist(ren, worklist);
  peel_queue_.Renumber(new_n, ren.to_new);
  baseline_ = new_n;
}

uint64_t WorkingGraph::LiveEdges() const {
  uint64_t deg_sum = 0;
  for (Vertex v = 0; v < NumVertices(); ++v) {
    if (alive[v]) deg_sum += deg[v];
  }
  return deg_sum / 2;
}

void WorkingGraph::CaptureKernel(const std::vector<uint8_t>& in_set,
                                 KernelSnapshot* out) const {
  out->captured = true;
  out->orig_to_kernel.assign(in_set.size(), kInvalidVertex);
  out->kernel_to_orig.clear();
  out->included.clear();
  out->deferred_stack = deferred;
  for (Vertex v = 0; v < in_set.size(); ++v) {
    if (in_set[v]) out->included.push_back(v);
  }
  // to_orig is increasing, so kernel ids follow input-id order.
  const auto in_kernel = [&](Vertex v) { return alive[v] && deg[v] > 0; };
  for (Vertex v = 0; v < NumVertices(); ++v) {
    if (!in_kernel(v)) continue;
    out->orig_to_kernel[to_orig[v]] = static_cast<Vertex>(out->kernel_to_orig.size());
    out->kernel_to_orig.push_back(to_orig[v]);
  }
  // Rewired slots are real kernel edges; edges to dead vertices are gone.
  std::vector<Edge> edges;
  for (Vertex a = 0; a < NumVertices(); ++a) {
    if (!in_kernel(a)) continue;
    for (const Vertex b : Neighbors(a)) {
      if (a < b && in_kernel(b)) {
        edges.emplace_back(out->orig_to_kernel[to_orig[a]],
                           out->orig_to_kernel[to_orig[b]]);
      }
    }
  }
  out->kernel =
      Graph::FromEdges(static_cast<Vertex>(out->kernel_to_orig.size()), edges);
}

void WorkingGraph::NoteFirstPeel(const char* event, MisSolution* sol,
                                 KernelSnapshot* capture) const {
  if (auto* t = obs::Trace()) t->Instant(event);
  sol->kernel_vertices = active;
  sol->kernel_edges = LiveEdges();
  if (capture != nullptr) CaptureKernel(sol->in_set, capture);
}

void WorkingGraph::SampleProgress(obs::ProgressSampler* ps, uint64_t solution_size,
                                  uint64_t peels, const char* label) const {
  obs::ProgressSample s;
  s.live_vertices = active;
  s.live_edges = LiveEdges();
  s.solution_size = solution_size;
  s.upper_bound = solution_size + active + deferred.size() + peels;
  s.label = label;
  ps->Record(std::move(s));
}

void WorkingGraph::WalkDegreeTwoPath(Vertex u, DegreeTwoPath* out) const {
  const Vertex first = FirstAliveNeighbor(u);
  const Vertex second = OtherAliveNeighbor(u, first);
  RPMIS_DASSERT(first != kInvalidVertex && second != kInvalidVertex);
  // Appends the degree-two vertices met walking from u through `cur` and
  // returns the first vertex of another degree (the attachment), or
  // kInvalidVertex when the walk returns to u (a degree-two cycle).
  const auto walk = [&](Vertex cur) {
    Vertex prev = u;
    while (deg[cur] == 2) {
      if (cur == u) return kInvalidVertex;
      out->path.push_back(cur);
      const Vertex next = OtherAliveNeighbor(cur, prev);
      RPMIS_DASSERT(next != kInvalidVertex);
      prev = cur;
      cur = next;
    }
    return cur;
  };
  // path = v_1 .. v_l: the `second` side reversed, u, then the `first`
  // side; v attaches to v_1, w to v_l.
  out->path.clear();
  out->v = walk(second);
  out->is_cycle = out->v == kInvalidVertex;
  if (out->is_cycle) return;
  std::reverse(out->path.begin(), out->path.end());
  out->path.push_back(u);
  out->w = walk(first);
  RPMIS_DASSERT(out->w != kInvalidVertex);
}

void WorkingGraph::DeferPath(const DegreeTwoPath& p, size_t first) {
  const std::vector<Vertex>& path = p.path;
  const size_t l = path.size();
  for (size_t i = l; i-- > first;) {
    deferred.push_back({to_orig[path[i]], to_orig[i > 0 ? path[i - 1] : p.v],
                        to_orig[i + 1 < l ? path[i + 1] : p.w]});
  }
  for (size_t i = first; i < l; ++i) {
    alive[path[i]] = 0;
    deg[path[i]] = 0;
    --active;
  }
}

}  // namespace rpmis
