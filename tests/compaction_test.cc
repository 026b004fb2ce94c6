// Compaction tests: the renaming and the working graph's rebuild
// (mapping stack, worklist renaming, slot order and slot map),
// byte-identical differential runs (compaction on at several thresholds
// vs off, kernel snapshots included) for the three compacting solvers,
// the induced-CSR builder and NearLinear across thread counts, and the O(n + m)
// total-work regression guarding against quadratic re-mapping.
#include "mis/compaction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "localsearch/boosted.h"
#include "mis/bdone.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/solution.h"
#include "mis/verify.h"
#include "mis/working_graph.h"
#include "test_util.h"

namespace rpmis {
namespace {

using ::rpmis::testing::PaperFigure1;
using ::rpmis::testing::PaperFigure1Modified;
using ::rpmis::testing::PaperFigure2;
using ::rpmis::testing::PaperFigure5;

// Pins RPMIS_THREADS for a scope and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("RPMIS_THREADS");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    setenv("RPMIS_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      setenv("RPMIS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("RPMIS_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

// ---------------------------------------------------------------------------
// Renaming primitives.

TEST(CompactionPrimitives, BuildRenamingIsMonotone) {
  const std::vector<uint8_t> keep = {1, 0, 1, 1, 0, 0, 1};
  const VertexRenaming ren = BuildRenaming(keep);
  EXPECT_EQ(ren.kept, (std::vector<Vertex>{0, 2, 3, 6}));
  EXPECT_EQ(ren.to_new[0], 0u);
  EXPECT_EQ(ren.to_new[1], kInvalidVertex);
  EXPECT_EQ(ren.to_new[2], 1u);
  EXPECT_EQ(ren.to_new[3], 2u);
  EXPECT_EQ(ren.to_new[6], 3u);
}

// Compaction options that rebuild whenever any vertex has left the graph.
CompactionOptions Always() {
  return {.enabled = true, .threshold = 1.0, .min_vertices = 1};
}

// Removes v from a test working graph the way the solvers do.
void Kill(WorkingGraph& wg, Vertex v) {
  wg.alive[v] = 0;
  --wg.active;
  for (const Vertex w : wg.Neighbors(v)) {
    if (wg.alive[w] && --wg.deg[w] == 0) --wg.active;
  }
}

TEST(CompactionPrimitives, ComposeToOrigStacks) {
  // Two disjoint paths 0-2-5-4 and 1-3; the first rebuild drops {1, 3},
  // the second drops the new ids of 0 and 4.
  const Graph g = Graph::FromEdges(
      6, std::vector<Edge>{{0, 2}, {2, 5}, {5, 4}, {1, 3}});
  CompactionStats stats;
  WorkingGraph wg(g, {}, WorkingGraph::Adjacency::kView, Always(),
                  "test.compact", &stats);
  Kill(wg, 1);
  ASSERT_TRUE(wg.MaybeCompact({}));
  EXPECT_EQ(wg.to_orig, (std::vector<Vertex>{0, 2, 4, 5}));
  Kill(wg, 0);
  Kill(wg, 2);
  ASSERT_TRUE(wg.MaybeCompact({}));
  EXPECT_EQ(wg.to_orig, (std::vector<Vertex>{2, 5}));
  EXPECT_EQ(stats.compactions, 2u);
}

TEST(CompactionPrimitives, RemapWorklistPreservesOrderDropsDead) {
  const Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  CompactionStats stats;
  WorkingGraph wg(g, {}, WorkingGraph::Adjacency::kView, Always(),
                  "test.compact", &stats);
  std::vector<Vertex> wl = {3, 1, 0, 2, 1, 3};
  std::vector<Vertex> empty;
  wg.alive[1] = 0;  // 0 stays alive with a stale positive degree
  --wg.active;
  ASSERT_TRUE(wg.MaybeCompact({&wl, &empty}));
  EXPECT_EQ(wl, (std::vector<Vertex>{2, 0, 1, 2}));
  EXPECT_TRUE(empty.empty());
}

TEST(CompactionPrimitives, CompactCsrPreservesSlotOrder) {
  // 0 - 1 - 2 - 3 plus chord 0-2; drop vertex 1.
  const Graph g = Graph::FromEdges(
      4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  CompactionStats stats;
  WorkingGraph wg(g, {}, WorkingGraph::Adjacency::kView, Always(),
                  "test.compact", &stats);
  Kill(wg, 1);
  std::vector<uint32_t> slot_map;
  ASSERT_TRUE(wg.MaybeCompact({}, &slot_map));
  ASSERT_EQ(wg.NumVertices(), 3u);
  // New 0 = old 0: neighbours were {1, 2}; slot for dead 1 dropped.
  EXPECT_EQ(std::vector<Vertex>(wg.Neighbors(0).begin(), wg.Neighbors(0).end()),
            (std::vector<Vertex>{1}));
  // New 1 = old 2: neighbours were {0, 1, 3} -> {0, 2} in new ids.
  EXPECT_EQ(std::vector<Vertex>(wg.Neighbors(1).begin(), wg.Neighbors(1).end()),
            (std::vector<Vertex>{0, 2}));
  // New 2 = old 3: neighbour {2} -> {1}.
  EXPECT_EQ(std::vector<Vertex>(wg.Neighbors(2).begin(), wg.Neighbors(2).end()),
            (std::vector<Vertex>{1}));
  EXPECT_EQ(wg.deg, (std::vector<uint32_t>{1, 2, 1}));
  // Old slots: 0:{1,2} 1:{0,2} 2:{0,1,3} 3:{2}.
  const uint32_t x = kInvalidVertex;
  EXPECT_EQ(slot_map, (std::vector<uint32_t>{x, 0, x, x, 1, x, 2, 3}));
  EXPECT_EQ(stats.vertices_scanned, 4u);
  // Only kept vertices' lists are walked: deg(0) + deg(2) + deg(3).
  EXPECT_EQ(stats.slots_scanned, 6u);
  EXPECT_EQ(stats.vertices_kept, 3u);
  EXPECT_EQ(stats.slots_kept, 4u);
}

TEST(CompactionPrimitives, BelowThresholdDoesNotRebuild) {
  const Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {2, 3}});
  CompactionStats stats;
  WorkingGraph wg(g, {}, WorkingGraph::Adjacency::kView,
                  {.enabled = true, .threshold = 0.5, .min_vertices = 1},
                  "test.compact", &stats);
  Kill(wg, 0);  // active 2 of 4: not below half
  EXPECT_FALSE(wg.MaybeCompact({}));
  Kill(wg, 2);  // active 0: nothing left to rebuild
  EXPECT_FALSE(wg.MaybeCompact({}));
  EXPECT_EQ(stats.compactions, 0u);
}

// ---------------------------------------------------------------------------
// Differential: compaction on (three thresholds) vs off, all algorithms.

void ExpectIdenticalModuloCompaction(const MisSolution& on,
                                     const MisSolution& off,
                                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(on.in_set, off.in_set);
  EXPECT_EQ(on.size, off.size);
  EXPECT_EQ(on.peeled, off.peeled);
  EXPECT_EQ(on.residual_peeled, off.residual_peeled);
  EXPECT_EQ(on.kernel_vertices, off.kernel_vertices);
  EXPECT_EQ(on.kernel_edges, off.kernel_edges);
  EXPECT_EQ(on.provably_maximum, off.provably_maximum);
  for (const RuleCounterField& f : kRuleCounterFields) {
    EXPECT_EQ(on.rules.*f.member, off.rules.*f.member) << f.metric;
  }
  EXPECT_EQ(off.compaction.compactions, 0u);
}

void ExpectIdenticalSnapshots(const KernelSnapshot& on, const KernelSnapshot& off,
                              const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(on.captured);
  ASSERT_TRUE(off.captured);
  EXPECT_EQ(on.kernel.NumVertices(), off.kernel.NumVertices());
  EXPECT_EQ(on.kernel.CollectEdges(), off.kernel.CollectEdges());
  EXPECT_EQ(on.kernel_to_orig, off.kernel_to_orig);
  EXPECT_EQ(on.orig_to_kernel, off.orig_to_kernel);
  EXPECT_EQ(on.included, off.included);
  ASSERT_EQ(on.deferred_stack.size(), off.deferred_stack.size());
  for (size_t i = 0; i < on.deferred_stack.size(); ++i) {
    const DeferredDecision& a = on.deferred_stack[i];
    const DeferredDecision& b = off.deferred_stack[i];
    EXPECT_TRUE(a.v == b.v && a.nb1 == b.nb1 && a.nb2 == b.nb2) << "entry " << i;
  }
}

std::vector<std::pair<std::string, Graph>> DifferentialGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("fig1", PaperFigure1());
  graphs.emplace_back("fig1mod", PaperFigure1Modified());
  graphs.emplace_back("fig2", PaperFigure2());
  graphs.emplace_back("fig5", PaperFigure5());
  graphs.emplace_back("er-3k", ErdosRenyiGnm(3000, 9000, 7));
  graphs.emplace_back("er-sparse", ErdosRenyiGnm(2000, 2000, 11));
  graphs.emplace_back("powerlaw", ChungLuPowerLaw(5000, 2.5, 6.0, 13));
  graphs.emplace_back("plcore", PowerLawWithCore(4000, 2.5, 6.0, 100, 20.0, 17));
  return graphs;
}

constexpr double kThresholds[] = {0.9, 0.5, 0.1};

CompactionOptions Aggressive(double threshold) {
  CompactionOptions copts;
  copts.enabled = true;
  copts.threshold = threshold;
  copts.min_vertices = 1;
  return copts;
}

TEST(CompactionDifferential, BDOne) {
  for (const auto& [name, g] : DifferentialGraphs()) {
    KernelSnapshot off_snap;
    const MisSolution off =
        RunBDOne(g, &off_snap, {.compaction = {.enabled = false}});
    EXPECT_TRUE(IsMaximalIndependentSet(g, off.in_set));
    for (double t : kThresholds) {
      const std::string label = name + " t=" + std::to_string(t);
      KernelSnapshot on_snap;
      const MisSolution on = RunBDOne(g, &on_snap, {.compaction = Aggressive(t)});
      ExpectIdenticalModuloCompaction(on, off, label);
      ExpectIdenticalSnapshots(on_snap, off_snap, label);
      if (g.NumVertices() >= 1000 && t >= 0.9) {
        EXPECT_GT(on.compaction.compactions, 0u) << name;
      }
    }
  }
}

TEST(CompactionDifferential, LinearTime) {
  for (const auto& [name, g] : DifferentialGraphs()) {
    KernelSnapshot off_snap;
    const MisSolution off =
        RunLinearTime(g, &off_snap, {.compaction = {.enabled = false}});
    EXPECT_TRUE(IsMaximalIndependentSet(g, off.in_set));
    for (double t : kThresholds) {
      const std::string label = name + " t=" + std::to_string(t);
      KernelSnapshot on_snap;
      const MisSolution on =
          RunLinearTime(g, &on_snap, {.compaction = Aggressive(t)});
      ExpectIdenticalModuloCompaction(on, off, label);
      ExpectIdenticalSnapshots(on_snap, off_snap, label);
    }
  }
}

TEST(CompactionDifferential, NearLinear) {
  for (const auto& [name, g] : DifferentialGraphs()) {
    NearLinearOptions off_opts;
    off_opts.compaction.enabled = false;
    KernelSnapshot off_snap;
    const MisSolution off = RunNearLinear(g, &off_snap, off_opts);
    EXPECT_TRUE(IsMaximalIndependentSet(g, off.in_set));
    for (double t : kThresholds) {
      const std::string label = name + " t=" + std::to_string(t);
      NearLinearOptions on_opts;
      on_opts.compaction = Aggressive(t);
      KernelSnapshot on_snap;
      const MisSolution on = RunNearLinear(g, &on_snap, on_opts);
      ExpectIdenticalModuloCompaction(on, off, label);
      ExpectIdenticalSnapshots(on_snap, off_snap, label);
    }
  }
}

// NearLinear with the prepasses ablated exercises the main loop (and its
// mid-run rebuilds) on the full instance rather than the prepass kernel.
TEST(CompactionDifferential, NearLinearCoreOnly) {
  const Graph g = ChungLuPowerLaw(5000, 2.5, 6.0, 19);
  NearLinearOptions off_opts;
  off_opts.one_pass_dominance = false;
  off_opts.lp_reduction = false;
  off_opts.compaction.enabled = false;
  const MisSolution off = RunNearLinear(g, nullptr, off_opts);
  for (double t : kThresholds) {
    NearLinearOptions on_opts = off_opts;
    on_opts.compaction = Aggressive(t);
    const MisSolution on = RunNearLinear(g, nullptr, on_opts);
    ExpectIdenticalModuloCompaction(on, off, "t=" + std::to_string(t));
    if (t >= 0.9) {
      EXPECT_GT(on.compaction.compactions, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// The induced CSRs (NearLinear's LP input and kernel, the working graph's
// CSR rebuild) and NearLinear's solution must not depend on the thread
// count.

TEST(CompactGraphParallel, ByteIdenticalAcrossThreadCounts) {
  // BuildCompactGraph against FromEdges on the same induced edge set.
  const Graph g = ChungLuPowerLaw(30000, 2.5, 8.0, 41);
  std::vector<uint8_t> keep(g.NumVertices());
  for (Vertex v = 0; v < g.NumVertices(); ++v) keep[v] = v % 3 != 0;
  const VertexRenaming ren = BuildRenaming(keep);
  std::vector<Edge> edges;
  for (const auto& [u, v] : g.CollectEdges()) {
    if (keep[u] && keep[v]) edges.emplace_back(ren.to_new[u], ren.to_new[v]);
  }
  const Graph expected =
      Graph::FromEdges(static_cast<Vertex>(ren.kept.size()), edges);
  ASSERT_GT(expected.NumEdges(), 0u);
  for (const char* threads : {"1", "8"}) {
    ScopedThreads pin(threads);
    const Graph got =
        BuildCompactGraph(ren, [&g](Vertex v) { return g.Neighbors(v); });
    EXPECT_TRUE(std::ranges::equal(got.RawOffsets(), expected.RawOffsets()))
        << threads;
    EXPECT_TRUE(std::ranges::equal(got.RawNeighbors(), expected.RawNeighbors()))
        << threads;
  }
}

TEST(ParallelDominance, NearLinearEndToEndAcrossThreadCounts) {
  const Graph g = ChungLuPowerLaw(10000, 2.5, 8.0, 29);
  MisSolution serial;
  {
    ScopedThreads pin("1");
    serial = RunNearLinear(g);
  }
  for (const char* threads : {"2", "8"}) {
    ScopedThreads pin(threads);
    const MisSolution parallel = RunNearLinear(g);
    EXPECT_EQ(parallel.in_set, serial.in_set) << threads;
    EXPECT_EQ(parallel.rules.one_pass_dominance,
              serial.rules.one_pass_dominance)
        << threads;
    EXPECT_EQ(parallel.rules.lp, serial.rules.lp) << threads;
  }
}

// ---------------------------------------------------------------------------
// Total-work regression: under geometric thresholds the rebuilds' own work
// stays O(n + m) for the whole run — no quadratic re-mapping.

TEST(CompactionWork, TotalRebuildWorkIsLinear) {
  const Vertex n = 100000;
  const uint64_t m = 300000;
  const Graph g = ErdosRenyiGnm(n, m, 31);
  BDOneOptions opts;
  opts.compaction.threshold = 0.5;
  opts.compaction.min_vertices = 1;
  const MisSolution sol = RunBDOne(g, nullptr, opts);
  EXPECT_GE(sol.compaction.compactions, 3u);
  // Each rebuild scans the previous build, and active counts halve between
  // builds, so the sums form (at worst) a geometric series: a small
  // constant times the instance size bounds them. 4x leaves slack for the
  // first full-size rebuild plus rounding; a quadratic regression would
  // overshoot by orders of magnitude.
  EXPECT_LE(sol.compaction.vertices_scanned, 4u * static_cast<uint64_t>(n));
  EXPECT_LE(sol.compaction.slots_scanned, 4u * 2u * m);
  EXPECT_LT(sol.compaction.vertices_kept, sol.compaction.vertices_scanned);
}

// Aggressive-threshold smoke across every compacting solver on one graph: catches
// mapping bugs in seconds without the 10M-edge bench.
TEST(CompactionWork, AggressiveSmokeAllAlgorithms) {
  const Graph g = ChungLuPowerLaw(3000, 2.5, 6.0, 37);
  const CompactionOptions copts = Aggressive(0.95);
  const MisSolution a = RunBDOne(g, nullptr, {.compaction = copts});
  EXPECT_TRUE(IsMaximalIndependentSet(g, a.in_set));
  const MisSolution c = RunLinearTime(g, nullptr, {.compaction = copts});
  EXPECT_TRUE(IsMaximalIndependentSet(g, c.in_set));
  NearLinearOptions nl;
  nl.compaction = copts;
  const MisSolution d = RunNearLinear(g, nullptr, nl);
  EXPECT_TRUE(IsMaximalIndependentSet(g, d.in_set));
}

// ARW boosted by a compacting solver must see the exact same kernel (and
// base solution) as the non-compacting run: the snapshot is extracted from
// the compacted working graph, and the mapping stack makes that lossless.
TEST(CompactionDifferential, BoostedArwKernelSnapshot) {
  const Graph g = ChungLuPowerLaw(4000, 2.5, 6.0, 23);
  for (const BoostKind kind : {BoostKind::kLinearTime, BoostKind::kNearLinear}) {
    BoostedOptions on;
    on.time_limit_seconds = 0.02;
    on.compaction = Aggressive(0.9);
    BoostedOptions off = on;
    off.compaction.enabled = false;
    const BoostedResult a = RunBoostedArw(g, kind, on);
    const BoostedResult b = RunBoostedArw(g, kind, off);
    EXPECT_EQ(a.base.in_set, b.base.in_set);
    EXPECT_EQ(a.base.size, b.base.size);
    EXPECT_EQ(a.kernel_vertices, b.kernel_vertices);
    EXPECT_EQ(a.kernel_edges, b.kernel_edges);
    EXPECT_GT(a.base.compaction.compactions, 0u);
    EXPECT_EQ(b.base.compaction.compactions, 0u);
    EXPECT_TRUE(IsMaximalIndependentSet(g, a.in_set));
    EXPECT_TRUE(IsMaximalIndependentSet(g, b.in_set));
  }
}

}  // namespace
}  // namespace rpmis
