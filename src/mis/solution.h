// Solution and instrumentation types shared by every MIS algorithm.
#ifndef RPMIS_MIS_SOLUTION_H_
#define RPMIS_MIS_SOLUTION_H_

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mis/compaction.h"

namespace rpmis {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Per-reduction-rule application counters (diagnostics for DESIGN.md's
/// ablations and the kernel benches).
struct RuleCounters {
  uint64_t degree_zero = 0;
  uint64_t degree_one = 0;
  uint64_t degree_two_isolation = 0;
  uint64_t degree_two_folding = 0;
  uint64_t degree_two_path = 0;   // Lemma 4.1 path/cycle applications
  uint64_t dominance = 0;
  uint64_t one_pass_dominance = 0;
  uint64_t lp = 0;                // vertices fixed by the LP reduction
  uint64_t twin = 0;
  uint64_t unconfined = 0;
  uint64_t peels = 0;             // inexact reductions (|F|)

  /// Sum of every counter except `peels`.
  uint64_t TotalExact() const;

  /// Field-wise accumulation (merging per-component runs).
  RuleCounters& operator+=(const RuleCounters& other);
};

/// One row per RuleCounters field: its metric name and member. Every loop
/// over all the rule counters walks this table, so adding a rule counter
/// means adding the field and one row here.
struct RuleCounterField {
  const char* metric;
  uint64_t RuleCounters::*member;
};
inline constexpr RuleCounterField kRuleCounterFields[] = {
    {"rules.degree_zero", &RuleCounters::degree_zero},
    {"rules.degree_one", &RuleCounters::degree_one},
    {"rules.degree_two_isolation", &RuleCounters::degree_two_isolation},
    {"rules.degree_two_folding", &RuleCounters::degree_two_folding},
    {"rules.degree_two_path", &RuleCounters::degree_two_path},
    {"rules.dominance", &RuleCounters::dominance},
    {"rules.one_pass_dominance", &RuleCounters::one_pass_dominance},
    {"rules.lp", &RuleCounters::lp},
    {"rules.twin", &RuleCounters::twin},
    {"rules.unconfined", &RuleCounters::unconfined},
    {"rules.peels", &RuleCounters::peels},
};
static_assert(sizeof(RuleCounters) ==
                  std::size(kRuleCounterFields) * sizeof(uint64_t),
              "every RuleCounters field needs a kRuleCounterFields row");

/// A deferred degree-two-path membership decision (Lemma 4.1 cases 3-5).
/// `v` was removed with exactly two neighbours, `nb1`/`nb2` — possibly
/// REWIRED (virtual) edges, which encode the path constraints. On replay,
/// v joins I iff neither partner is in I. Replaying against these
/// at-removal partners (never the original adjacency, which misses
/// rewired edges) is what preserves the alternating-half guarantee when
/// path reductions chain through rewired edges.
struct DeferredDecision {
  Vertex v;
  Vertex nb1;
  Vertex nb2;
};

/// Kernel snapshot taken immediately before the first inexact reduction
/// (§6: the graph K on which boosted local search runs). If the algorithm
/// never peels, the snapshot is taken at termination and the kernel is
/// empty or edgeless.
struct KernelSnapshot {
  Graph kernel;                         // renumbered kernel graph
  std::vector<Vertex> kernel_to_orig;   // kernel id -> original id
  std::vector<Vertex> orig_to_kernel;   // original id -> kernel id or kInvalidVertex
  std::vector<Vertex> included;         // original ids already fixed into I
  /// Deferred decisions recorded up to the snapshot, in push order
  /// (original ids); replay in reverse (LIFO).
  std::vector<DeferredDecision> deferred_stack;
  bool captured = false;
};

/// Result of a (heuristic or exact) MIS computation.
struct MisSolution {
  std::vector<uint8_t> in_set;  // n flags
  uint64_t size = 0;

  /// Theorem 6.1 accounting: F = peeled vertices, R = F \ I.
  uint64_t peeled = 0;           // |F|
  uint64_t residual_peeled = 0;  // |R|

  /// α(G) <= size + residual_peeled (Theorem 6.1).
  uint64_t UpperBound() const { return size + residual_peeled; }

  /// True iff R was empty, i.e. the algorithm can certify I is maximum.
  bool provably_maximum = false;

  /// Remaining graph size at the moment of the first peel (kernel size).
  uint64_t kernel_vertices = 0;
  uint64_t kernel_edges = 0;

  RuleCounters rules;

  /// Mid-run subgraph rebuild counters (mis/compaction.h).
  CompactionStats compaction;

  /// Accumulates the scalar statistics of a partial solution (size, peel
  /// and kernel counts, rule counters; provably_maximum is ANDed).
  /// `in_set` is untouched — scattering membership flags needs the
  /// caller's vertex renaming. This is the one merge routine shared by
  /// every component-wise runner.
  void MergeStatsFrom(const MisSolution& part);

  /// Publishes the solution's figures into `metrics`: the Theorem 6.1
  /// and kernel figures as gauges ("solution.size", "kernel.vertices"),
  /// the rule and compaction counters as counters ("rules.degree_one",
  /// "compaction.rebuilds"). Counters accumulate over repeated runs;
  /// gauges keep the last run.
  void PublishMetrics(obs::MetricsRegistry& metrics) const;

  /// Recomputes `size` from `in_set` (used after post-processing passes).
  void RecountSize() {
    size = 0;
    for (uint8_t f : in_set) size += f;
  }

  /// The Reducing-Peeling finalize tail, run once `in_set` is final:
  /// recounts `size`, sets |F| from the peel counter and derives |R| and
  /// the Theorem 6.1 certificate from `peeled` (one flag per input vertex).
  void Finalize(std::span<const uint8_t> peeled);
};

/// Greedily extends `in_set` to a maximal independent set of g: every
/// vertex with no neighbour currently in the set is added, in increasing id
/// order. Returns the number of vertices added. This is Line 6 of
/// Algorithm 1 and also how temporarily peeled vertices re-enter I.
uint64_t ExtendToMaximal(const Graph& g, std::vector<uint8_t>& in_set);

/// Replays a deferred degree-two-path stack: pops in reverse push order
/// and adds each vertex iff neither at-removal partner is in the set.
/// Returns the number added.
uint64_t ReplayDeferredStack(std::span<const DeferredDecision> stack,
                             std::vector<uint8_t>& in_set);

}  // namespace rpmis

#endif  // RPMIS_MIS_SOLUTION_H_
