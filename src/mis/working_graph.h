// The shrinking working graph of the tombstone Reducing-Peeling solvers.
//
// BDOne (Alg. 2), LinearTime (Alg. 4) and NearLinear's main loop (Alg. 5)
// run the same reduce-then-peel loop over one graph from which vertices
// are deleted logically: an alive bitmap and cached degrees, never a
// physical removal. This class owns everything that loop shares — the CSR
// (a zero-copy view of the input, or a private copy when the solver
// rewires edges), the current-id -> input-id map, alive/deg/active, the
// deferred degree-two-path stack, the peel queue, the degree-two path
// walk, the kernel snapshot and the progress samples — so each solver
// keeps only its own reduction rules.
//
// Mid-run compaction (the KaMIS-style "rebuild the kernel" trick): once
// the active-vertex count drops below a fraction of the last build,
// MaybeCompact rebuilds the CSR over the surviving subgraph so later
// scans stop streaming dead slots. Geometric thresholds keep the total
// rebuild work a constant factor of n + m. Runs are byte-identical with
// compaction on, off or at any threshold because
//  * the renaming is MONOTONE (kept vertices keep their relative order),
//    so increasing-id scans and a < b edge enumerations are unchanged;
//  * per-vertex slot order is preserved, so first-alive-neighbour scans
//    and rewire lookups pick the same slots;
//  * worklists and the peel queue are renamed in order, dropping exactly
//    the dead entries their lazy staleness checks would have skipped;
//  * decisions are always recorded in INPUT ids: `to_orig` is composed
//    eagerly at every rebuild, a geometric series of O(n) total work.
#ifndef RPMIS_MIS_WORKING_GRAPH_H_
#define RPMIS_MIS_WORKING_GRAPH_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "ds/bucket_queue.h"
#include "graph/graph.h"
#include "mis/compaction.h"
#include "mis/solution.h"
#include "obs/progress.h"

namespace rpmis {

class WorkingGraph {
 public:
  enum class Adjacency {
    kView,         // read-only view of the input CSR (no copy)
    kPrivateCopy,  // private copy of the neighbour array; Rewire allowed
  };

  /// Starts the working graph over g. `to_orig` maps g's ids to input ids
  /// (empty: g is the input). `compact_span` names the trace span of each
  /// rebuild; rebuild counters accumulate into `stats`.
  WorkingGraph(const Graph& g, std::vector<Vertex> to_orig, Adjacency adjacency,
               const CompactionOptions& options, const char* compact_span,
               CompactionStats* stats);

  // Per-vertex state over the CURRENT universe, read and written directly
  // by the solvers' reduction rules.
  std::vector<Vertex> to_orig;    // current id -> input id (increasing)
  std::vector<uint8_t> alive;
  std::vector<uint32_t> deg;      // alive-neighbour count
  Vertex active = 0;              // # vertices with alive && deg > 0
  /// The deferred degree-two-path decisions (Lemma 4.1 cases 3-5), in
  /// input ids and push order.
  std::vector<DeferredDecision> deferred;

  Vertex NumVertices() const { return static_cast<Vertex>(alive.size()); }
  uint64_t NumSlots() const { return adj_.size(); }

  // Slot access: v's neighbours are At(Begin(v)) .. At(End(v) - 1).
  uint64_t Begin(Vertex v) const { return offsets_[v]; }
  uint64_t End(Vertex v) const { return offsets_[v + 1]; }
  Vertex At(uint64_t slot) const { return adj_[slot]; }
  std::span<const Vertex> Neighbors(Vertex v) const {
    return adj_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  Vertex FirstAliveNeighbor(Vertex v) const {
    for (const Vertex w : Neighbors(v)) {
      if (alive[w]) return w;
    }
    return kInvalidVertex;
  }

  /// The alive neighbour of v other than `exclude` (v must have exactly
  /// two alive neighbours).
  Vertex OtherAliveNeighbor(Vertex v, Vertex exclude) const {
    for (const Vertex w : Neighbors(v)) {
      if (alive[w] && w != exclude) return w;
    }
    return kInvalidVertex;
  }

  bool HasAliveEdge(Vertex a, Vertex b) const {
    if (deg[a] > deg[b]) std::swap(a, b);
    for (const Vertex w : Neighbors(a)) {
      if (w == b) return alive[b] != 0;
    }
    return false;
  }

  /// Overwrites the slot of a's list holding `old_nb` with `new_nb` and
  /// returns that slot. Requires Adjacency::kPrivateCopy.
  uint64_t Rewire(Vertex a, Vertex old_nb, Vertex new_nb);

  /// Pops the highest-degree alive vertex of degree >= 2 (the peeling
  /// candidate), or kInvalidVertex when none is left.
  Vertex PopMaxDegree() {
    return peel_queue_.PopMax([this](Vertex x) { return deg[x]; },
                              [this](Vertex x) { return alive[x] && deg[x] >= 2; });
  }

  /// Rebuilds the graph over the alive vertices of positive degree when
  /// the compaction threshold is reached; returns whether it did. The
  /// given worklists and the peel queue are renamed in place. When
  /// `slot_map` is non-null it receives, per old slot, the new slot or
  /// kInvalidVertex if the slot was dropped (for per-slot side arrays).
  bool MaybeCompact(std::initializer_list<std::vector<Vertex>*> worklists,
                    std::vector<uint32_t>* slot_map = nullptr) {
    if (!options_.enabled || active == 0 || baseline_ < options_.min_vertices ||
        !(static_cast<double>(active) <
          options_.threshold * static_cast<double>(baseline_))) {
      return false;
    }
    Compact(worklists, slot_map);
    return true;
  }

  /// Number of alive edges: O(current n), for progress samples and the
  /// kernel size at the first peel.
  uint64_t LiveEdges() const;

  /// Snapshots the alive, positive-degree part of the graph (in input
  /// ids), the decided vertices of `in_set` and the deferred stack.
  void CaptureKernel(const std::vector<uint8_t>& in_set, KernelSnapshot* out) const;

  /// The first-peel bookkeeping: emits the trace instant `event`, records
  /// the kernel size in `sol` and, if `capture` is non-null, snapshots it.
  void NoteFirstPeel(const char* event, MisSolution* sol, KernelSnapshot* capture) const;

  /// Records one progress sample. The in-flight bound counts everything
  /// still live, deferred or peeled so far as possibly joining I
  /// (DESIGN.md §8).
  void SampleProgress(obs::ProgressSampler* ps, uint64_t solution_size,
                      uint64_t peels, const char* label) const;

  /// A maximal degree-two path v_1 .. v_l with attachments v (next to
  /// v_1) and w (next to v_l), or a degree-two cycle through the start.
  struct DegreeTwoPath {
    std::vector<Vertex> path;
    Vertex v = kInvalidVertex;
    Vertex w = kInvalidVertex;
    bool is_cycle = false;
  };

  /// Walks both directions from u (alive, deg == 2) while degrees stay 2.
  void WalkDegreeTwoPath(Vertex u, DegreeTwoPath* out) const;

  /// Removes path[first..l) and pushes their deferred decisions so that
  /// pops run path[first], path[first + 1], ... Each records its
  /// at-removal partners (the path neighbours or the attachments).
  void DeferPath(const DegreeTwoPath& p, size_t first);

 private:
  void Compact(std::initializer_list<std::vector<Vertex>*> worklists,
               std::vector<uint32_t>* slot_map);

  std::span<const uint64_t> offsets_;  // input CSR, then own_offsets_
  std::span<const Vertex> adj_;        // input CSR, then own_adj_
  std::vector<uint64_t> own_offsets_;
  std::vector<Vertex> own_adj_;
  LazyMaxBucketQueue peel_queue_;
  CompactionOptions options_;
  Vertex baseline_;  // size of the last build
  bool rewirable_;
  const char* compact_span_;
  CompactionStats* stats_;
};

}  // namespace rpmis

#endif  // RPMIS_MIS_WORKING_GRAPH_H_
