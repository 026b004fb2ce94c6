// Dynamic-update engine: maintains a near-maximum independent set under
// edge/vertex insertions and deletions (DESIGN.md §9).
//
// The engine wraps a LinearTime solve of the starting graph and keeps its
// solution repaired instead of re-solving from scratch per update. The
// solve's reduction provenance is kept in two projections:
//
//   * a vertex-granular view of the dependency DAG: for every vertex the
//     count of selected (IN) neighbours, `in_count`. A vertex is OUT
//     exactly because of its IN neighbours; removing one of those
//     decrements the count, and a count hitting zero means every reason
//     for the exclusion is gone — the vertex becomes *free* and joins the
//     repair frontier. The cone of an update is precisely the set of
//     vertices whose exclusion reasons it invalidated.
//   * a per-vertex peeled/exact flag (LinearTimeOptions::peeled), steering
//     which endpoint is evicted when an inserted edge lands inside the
//     set (prefer undoing a peel decision over an exact reduction).
//
// Repair re-runs the reducing-peeling worklist locally on the free cone
// (degree-zero/one includes, degree-two isolation, then min-free-degree
// greedy). Repair only ever *includes* vertices, so the cone shrinks
// monotonically and the work per update is O(cone · deg). When a cone
// exceeds the policy budget the engine falls back to a scoped re-solve of
// the touched connected component; a maintained upper bound U on α(G_t)
// (Theorem 6.1 at the last full solve, raised by every update that can
// raise α) gates quality drift and forces a full re-solve when the set
// falls too far behind U.
//
// The current graph is the CSR of the last full solve (the input at
// first) with a deleted flag per slot, plus a per-vertex overlay of the
// edges inserted since; a full re-solve merges the two into a fresh CSR.
#ifndef RPMIS_DYNAMIC_ENGINE_H_
#define RPMIS_DYNAMIC_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dynamic/update.h"
#include "graph/graph.h"
#include "obs/histogram.h"
#include "support/fast_set.h"

namespace rpmis::obs {
class MetricsRegistry;
}  // namespace rpmis::obs

namespace rpmis {

/// Repair/fallback thresholds. The cone budget is geometric in the alive
/// vertex count (like the compaction threshold): local repair handles cones up to
/// max(min_cone, cone_fraction * n_alive), larger cones re-solve the
/// touched component. The quality gate forces a full re-solve when
/// (U - size) exceeds the gap at the last full solve by more than
/// max(min_slack, max_gap * U).
struct DynamicPolicy {
  uint32_t min_cone = 512;
  double cone_fraction = 0.02;
  double max_gap = 0.005;
  uint32_t min_slack = 4;
};

/// Aggregate counters over the engine's lifetime.
struct DynamicStats {
  uint64_t insert_edges = 0;
  uint64_t delete_edges = 0;
  uint64_t insert_vertices = 0;
  uint64_t delete_vertices = 0;
  uint64_t noops = 0;  // duplicate inserts, deletes of absent edges/vertices

  uint64_t cone_vertices = 0;  // total frontier vertices across updates
  uint64_t max_cone = 0;
  uint64_t included_by_reduction = 0;  // repair includes via exact local rules
  uint64_t included_greedy = 0;        // repair includes via min-degree greedy
  uint64_t evictions = 0;              // set members evicted by edge inserts

  uint64_t component_fallbacks = 0;
  uint64_t full_resolves = 0;  // quality-gate + ForceResolve re-solves

  obs::LatencyHistogram latency;  // per-update apply latency
};

/// What one Apply did.
struct UpdateOutcome {
  uint32_t cone = 0;        // free vertices the update invalidated
  int64_t size_delta = 0;   // change of the maintained set size
  bool component_fallback = false;
  bool full_resolve = false;
};

/// See the file comment. Vertex ids are stable for the engine's lifetime:
/// the universe only grows (InsertVertex appends, DeleteVertex leaves a
/// dead id behind) and dead ids can come back through InsertEdge/
/// InsertVertex endpoints, which revive them.
class DynamicMisEngine {
 public:
  /// Solves `g` with (serial) LinearTime and adopts the solution. O(m).
  explicit DynamicMisEngine(const Graph& g, const DynamicPolicy& policy = {});

  /// Applies one update and repairs the set. Throws std::out_of_range for
  /// ids outside the current universe and std::invalid_argument for
  /// self-loops; inserting a present edge, deleting an absent edge, or
  /// deleting a dead vertex is a counted no-op.
  UpdateOutcome Apply(const GraphUpdate& update);

  /// Applies a stream in order (one obs trace span around the batch).
  void ApplyUpdates(std::span<const GraphUpdate> updates);

  /// Discards the maintained solution and re-solves the current graph
  /// from scratch, re-tightening the quality gate.
  void ForceResolve();

  Vertex NumVertices() const { return adj_.NumVertices(); }
  Vertex NumAliveVertices() const { return adj_.NumAliveVertices(); }
  uint64_t NumAliveEdges() const { return adj_.NumAliveEdges(); }
  bool Exists(Vertex v) const { return v < NumVertices() && adj_.IsAlive(v); }

  bool InSet(Vertex v) const { return in_set_[v] != 0; }
  const std::vector<uint8_t>& Selector() const { return in_set_; }
  uint64_t Size() const { return size_; }

  /// Maintained upper bound on α of the current graph (alive part).
  uint64_t UpperBound() const { return upper_; }

  /// CSR snapshot of the current graph over the full universe [0, n);
  /// dead vertices appear isolated.
  Graph CurrentGraph() const;

  /// Full O(n + m) audit of every engine invariant (membership implies
  /// alive, in_count correctness, independence, maximality, size/upper
  /// consistency). Returns false and describes the first violation.
  bool CheckInvariants(std::string* why = nullptr) const;

  const DynamicStats& stats() const { return stats_; }

  /// Writes the dynamic.* counters and the update-latency histogram into
  /// `metrics` (dotted-name convention, see obs/metrics.h).
  void PublishMetrics(obs::MetricsRegistry& metrics) const;

 private:
  // The current graph. The base is an immutable sorted CSR (the input,
  // then the merge of the last full re-solve) with one deleted flag per
  // slot; edges inserted since live in a per-vertex overlay list. Every
  // vertex has a base slice (empty for ids appended after the base was
  // built). A base slot is live iff its flag is clear and its target is
  // alive, so deleting a vertex flags only its own slots. ForEachNeighbor
  // yields the overlay newest-first, then the live base slice from its
  // highest id down.
  class OverlayGraph {
   public:
    explicit OverlayGraph(const Graph& base);

    Vertex NumVertices() const { return static_cast<Vertex>(degree_.size()); }
    Vertex NumAliveVertices() const { return alive_count_; }
    uint64_t NumAliveEdges() const { return alive_edges_; }
    bool IsAlive(Vertex v) const { return alive_[v] != 0; }
    uint32_t Degree(Vertex v) const { return degree_[v]; }

    /// The base CSR. Equal to the current graph right after construction
    /// or Rebase (no overlay, no deleted slot, no appended vertex).
    const Graph& Base() const { return base_; }

    template <typename Fn>
    void ForEachNeighbor(Vertex v, Fn fn) const {
      for (uint32_t h = head_[v]; h != kNil; h = pool_[h].next) fn(pool_[h].to);
      if (v >= base_.NumVertices()) return;
      for (uint64_t e = base_.EdgeEnd(v); e-- > base_.EdgeBegin(v);) {
        const Vertex w = base_.EdgeTarget(e);
        if (!deleted_[e] && alive_[w]) fn(w);
      }
    }

    bool HasEdge(Vertex u, Vertex v) const;

    /// Inserts (u, v), u != v, reviving dead endpoints first. Returns false
    /// if the edge already exists.
    bool InsertEdge(Vertex u, Vertex v);
    /// Removes the edge (u, v) if present; returns whether it was.
    bool RemoveEdge(Vertex u, Vertex v);
    /// Appends an isolated alive vertex and returns its id.
    Vertex AddVertex();
    /// Removes v and its incident edges; v must be alive.
    void RemoveVertex(Vertex v);

    /// The current graph as a sorted CSR over [0, NumVertices()), dead
    /// vertices isolated: one O(n + m) pass over base and overlay.
    Graph Merge() const;
    /// Adopts `merged` (a Merge() of this graph) as the new base.
    void Rebase(Graph merged);

   private:
    static constexpr uint64_t kNoSlot = static_cast<uint64_t>(-1);
    static constexpr uint32_t kNil = static_cast<uint32_t>(-1);

    // One inserted neighbour: an entry of a per-vertex singly-linked list
    // in `pool_`, newest first. Freed entries are chained from free_.
    struct Inserted {
      Vertex to;
      uint32_t next;
    };

    // Slot of w in v's base slice, or kNoSlot; deleted slots included.
    uint64_t FindBaseSlot(Vertex v, Vertex w) const;
    void PushInserted(Vertex v, Vertex w);
    // Unlinks w from v's inserted list; returns whether it was there.
    bool EraseInserted(Vertex v, Vertex w);

    Graph base_;
    std::vector<bool> deleted_;  // per base slot
    std::vector<uint32_t> head_;  // per vertex: newest inserted entry
    std::vector<Inserted> pool_;
    uint32_t free_ = kNil;
    std::vector<uint32_t> degree_;
    std::vector<uint8_t> alive_;
    Vertex alive_count_ = 0;
    uint64_t alive_edges_ = 0;
  };

  void ApplyInsertEdge(Vertex u, Vertex v, UpdateOutcome& out);
  void ApplyDeleteEdge(Vertex u, Vertex v, UpdateOutcome& out);
  void ApplyInsertVertex(std::span<const Vertex> neighbors, UpdateOutcome& out);
  void ApplyDeleteVertex(Vertex v, UpdateOutcome& out);

  // Picks which endpoint of a newly-inserted in-set edge to evict:
  // peel-provenance first, then higher degree, then higher id.
  Vertex ChooseEviction(Vertex u, Vertex v) const;

  // in_set_[v] := 1 plus in_count bookkeeping. v must be alive, free.
  void Include(Vertex v);
  // in_set_[v] := 0; neighbours whose in_count hits zero join frontier_.
  void Evict(Vertex v);

  bool IsFree(Vertex v) const {
    return adj_.IsAlive(v) && in_set_[v] == 0 && in_count_[v] == 0;
  }

  // Drains frontier_: local reducing-peeling when the cone fits the
  // budget, component re-solve otherwise, then the quality gate.
  void Repair(UpdateOutcome& out);
  void RepairLocally(std::vector<Vertex>& free);
  void ResolveComponent(std::span<const Vertex> seeds);

  // Re-solve of the current graph; adopts solution, provenance, U.
  void Resolve();

  void GrowUniverse();  // sizes per-vertex arrays to adj_.NumVertices()
  // Recounts in_count_ from scratch; the graph must equal its base.
  void RebuildInCounts();

  DynamicPolicy policy_;
  OverlayGraph adj_;

  std::vector<uint8_t> in_set_;
  std::vector<uint32_t> in_count_;  // selected-neighbour counts
  std::vector<uint8_t> peeled_;     // provenance: decided by a peel
  uint64_t size_ = 0;

  uint64_t upper_ = 0;     // maintained bound: α(alive graph) <= upper_
  uint64_t base_gap_ = 0;  // upper_ - size_ right after the last Resolve

  std::vector<Vertex> frontier_;  // free vertices awaiting repair
  FastSet seen_;                  // frontier dedup / BFS marks
  std::vector<Vertex> sub_id_;    // universe -> component-local id

  DynamicStats stats_;
};

}  // namespace rpmis

#endif  // RPMIS_DYNAMIC_ENGINE_H_
