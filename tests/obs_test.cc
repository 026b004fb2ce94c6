// Observability-layer tests: counter-exactness goldens on deterministic
// fixtures, trace well-formedness, and the core contract that sinks only
// observe — solutions are byte-identical with observability on or off.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/per_component.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "obs/validate.h"

namespace rpmis {
namespace {

Graph Path(Vertex n) {
  std::vector<Edge> e;
  for (Vertex i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  return Graph::FromEdges(n, e);
}

Graph Cycle(Vertex n) {
  std::vector<Edge> e;
  for (Vertex i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  e.emplace_back(n - 1, Vertex{0});
  return Graph::FromEdges(n, e);
}

Graph Clique(Vertex n) {
  std::vector<Edge> e;
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = i + 1; j < n; ++j) e.emplace_back(i, j);
  }
  return Graph::FromEdges(n, e);
}

/// Snapshot of a published solution's registry (MetricsRegistry itself
/// owns a mutex and cannot be returned by value).
struct PublishedMetrics {
  std::vector<obs::MetricsRegistry::Entry> entries;

  uint64_t Counter(const std::string& name) const {
    for (const auto& e : entries) {
      if (e.name == name && e.is_counter) return e.counter;
    }
    return 0;
  }
  double Gauge(const std::string& name) const {
    for (const auto& e : entries) {
      if (e.name == name && !e.is_counter) return e.gauge;
    }
    return 0.0;
  }
};

/// Runs `solve` and publishes its counters into a fresh registry — the
/// same pipeline the JSONL records use, so the goldens below pin both the
/// solver counts and the registry naming.
template <typename Solve>
PublishedMetrics Published(const Graph& g, Solve&& solve) {
  obs::MetricsRegistry reg;
  MisSolution sol = solve(g);
  sol.PublishMetrics(reg);
  return PublishedMetrics{reg.Snapshot()};
}

// The golden counts are the deterministic behaviour of the current rule
// order on fully symmetric fixtures; a change here means a reduction
// fires differently, which is worth a deliberate review.

TEST(CounterGoldensTest, PathFiveVertices) {
  const Graph g = Path(5);
  {
    auto reg = Published(g, [](const Graph& g) { return RunBDOne(g); });
    EXPECT_EQ(reg.Counter("rules.degree_one"), 2u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
    EXPECT_EQ(reg.Gauge("solution.size"), 3.0);
  }
  {
    auto reg = Published(g, [](const Graph& g) { return RunBDTwo(g); });
    EXPECT_EQ(reg.Counter("rules.degree_one"), 2u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
  }
  {
    auto reg = Published(g, [](const Graph& g) { return RunLinearTime(g); });
    EXPECT_EQ(reg.Counter("rules.degree_one"), 2u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
  }
  {
    // NearLinear's one-pass dominance prepass claims path endpoints
    // before the degree-one rule can see them.
    auto reg = Published(g, [](const Graph& g) { return RunNearLinear(g); });
    EXPECT_EQ(reg.Counter("rules.one_pass_dominance"), 2u);
    EXPECT_EQ(reg.Counter("rules.degree_one"), 0u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
    EXPECT_EQ(reg.Gauge("solution.provably_maximum"), 1.0);
  }
}

TEST(CounterGoldensTest, CycleSixVertices) {
  const Graph g = Cycle(6);
  {
    // BDOne has no degree-two rule: it must peel once to break the cycle.
    auto reg = Published(g, [](const Graph& g) { return RunBDOne(g); });
    EXPECT_EQ(reg.Counter("rules.degree_one"), 2u);
    EXPECT_EQ(reg.Counter("rules.peels"), 1u);
  }
  {
    // BDTwo folds instead of peeling: exact on every cycle.
    auto reg = Published(g, [](const Graph& g) { return RunBDTwo(g); });
    EXPECT_EQ(reg.Counter("rules.degree_two_folding"), 2u);
    EXPECT_EQ(reg.Counter("rules.degree_one"), 1u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
  }
  {
    // LinearTime applies one Lemma 4.1 cycle reduction, then finishes
    // with degree-one rules.
    auto reg = Published(g, [](const Graph& g) { return RunLinearTime(g); });
    EXPECT_EQ(reg.Counter("rules.degree_two_path"), 1u);
    EXPECT_EQ(reg.Counter("rules.degree_one"), 2u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
  }
  {
    auto reg = Published(g, [](const Graph& g) { return RunNearLinear(g); });
    EXPECT_EQ(reg.Counter("rules.degree_two_path"), 2u);
    EXPECT_EQ(reg.Counter("rules.dominance"), 1u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
    EXPECT_EQ(reg.Gauge("solution.size"), 3.0);
  }
}

TEST(CounterGoldensTest, CliqueFiveVertices) {
  const Graph g = Clique(5);
  {
    // A clique defeats the exact degree-one/two rules: BDOne peels hubs
    // until the rest collapses.
    auto reg = Published(g, [](const Graph& g) { return RunBDOne(g); });
    EXPECT_EQ(reg.Counter("rules.peels"), 3u);
    EXPECT_EQ(reg.Counter("rules.degree_one"), 1u);
    EXPECT_EQ(reg.Gauge("solution.size"), 1.0);
  }
  {
    auto reg = Published(g, [](const Graph& g) { return RunBDTwo(g); });
    EXPECT_EQ(reg.Counter("rules.peels"), 2u);
    EXPECT_EQ(reg.Counter("rules.degree_two_isolation"), 1u);
  }
  {
    auto reg = Published(g, [](const Graph& g) { return RunLinearTime(g); });
    EXPECT_EQ(reg.Counter("rules.peels"), 2u);
    EXPECT_EQ(reg.Counter("rules.degree_two_path"), 1u);
    EXPECT_EQ(reg.Counter("rules.degree_one"), 1u);
  }
  {
    // Dominance alone solves a clique: every vertex dominates its
    // neighbours, so four removals leave an isolated vertex — no peel.
    auto reg = Published(g, [](const Graph& g) { return RunNearLinear(g); });
    EXPECT_EQ(reg.Counter("rules.one_pass_dominance"), 4u);
    EXPECT_EQ(reg.Counter("rules.peels"), 0u);
    EXPECT_EQ(reg.Gauge("solution.provably_maximum"), 1.0);
  }
}

TEST(CounterGoldensTest, NoCompactionsOnTinyGraphs) {
  // The compaction policy must never trigger on graphs this small — a
  // rebuild on a 10-vertex instance would be pure overhead.
  const Graph fixtures[] = {Path(10), Cycle(7), Clique(5)};
  for (const Graph& g : fixtures) {
    for (const auto& solve :
         {std::function<MisSolution(const Graph&)>(
              [](const Graph& g) { return RunBDOne(g); }),
          std::function<MisSolution(const Graph&)>(
              [](const Graph& g) { return RunBDTwo(g); }),
          std::function<MisSolution(const Graph&)>(
              [](const Graph& g) { return RunLinearTime(g); }),
          std::function<MisSolution(const Graph&)>(
              [](const Graph& g) { return RunNearLinear(g); })}) {
      MisSolution sol = solve(g);
      EXPECT_EQ(sol.compaction.compactions, 0u);
      obs::MetricsRegistry reg;
      sol.PublishMetrics(reg);
      EXPECT_EQ(reg.Counter("compaction.rebuilds"), 0u);
    }
  }
}

TEST(CounterTableTest, TotalsMergeAndPublishWalkTheTable) {
  RuleCounters a;
  uint64_t value = 1;
  for (const RuleCounterField& f : kRuleCounterFields) a.*f.member = value++;
  // Every field but peels (the last row, value 11) is exact: 1 + ... + 10.
  EXPECT_EQ(a.TotalExact(), 55u);
  RuleCounters b = a;
  b += a;
  for (const RuleCounterField& f : kRuleCounterFields) {
    EXPECT_EQ(b.*f.member, 2 * (a.*f.member)) << f.metric;
  }
  MisSolution sol;
  sol.rules = a;
  obs::MetricsRegistry reg;
  sol.PublishMetrics(reg);
  for (const RuleCounterField& f : kRuleCounterFields) {
    EXPECT_EQ(reg.Counter(f.metric), a.*f.member) << f.metric;
  }
  EXPECT_EQ(reg.Counter("rules.total_exact"), 55u);
}

TEST(FormatMetricsTest, OneNameValueLinePerEntry) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(obs::FormatMetrics(reg.Snapshot()), "");
  reg.Add("rules.degree_one", 12345678901234ULL);
  reg.Set("solution.size", 3.0);
  reg.Set("lat.mean_us", 0.25);
  EXPECT_EQ(obs::FormatMetrics(reg.Snapshot()),
            "lat.mean_us 0.25\n"
            "rules.degree_one 12345678901234\n"
            "solution.size 3\n");
}

TEST(TraceTest, SolverTraceIsWellFormed) {
#ifdef RPMIS_NO_OBS
  GTEST_SKIP() << "solver hooks compiled out";
#endif
  const Graph g = ChungLuPowerLaw(5000, 2.5, 4.0, /*seed=*/11);
  obs::TraceSink sink;
  {
    obs::ScopedObservability scope(&sink, nullptr, nullptr);
    RunBDOne(g);
    RunBDTwo(g);
    RunLinearTime(g);
    RunNearLinear(g);
  }
  EXPECT_GT(sink.NumEvents(), 0u);
  EXPECT_EQ(sink.DroppedEvents(), 0u);
  const std::string json = sink.ToJson();
  const obs::ValidationResult r = obs::ValidateTraceJson(json);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.num_events, sink.NumEvents());
  for (const char* span : {"bdone", "bdtwo", "lineartime", "nearlinear",
                           "nearlinear.core", "nearlinear.finalize"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + span + "\""),
              std::string::npos)
        << span;
  }
}

TEST(TraceTest, ParallelComponentTraceIsWellFormed) {
#ifdef RPMIS_NO_OBS
  GTEST_SKIP() << "solver hooks compiled out";
#endif
  // Spans from pool workers must balance per thread id.
  GraphBuilder b(4 * 2000);
  for (Vertex c = 0; c < 4; ++c) {
    const Graph part = ChungLuPowerLaw(2000, 2.2, 4.0, /*seed=*/c + 1);
    for (const auto& [u, v] : part.CollectEdges()) {
      b.AddEdge(c * 2000 + u, c * 2000 + v);
    }
  }
  const Graph g = b.Build();
  obs::TraceSink sink;
  {
    obs::ScopedObservability scope(&sink, nullptr, nullptr);
    RunPerComponentParallel(
        g, [](const Graph& sub) { return RunLinearTime(sub); });
  }
  const obs::ValidationResult r = obs::ValidateTraceJson(sink.ToJson());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_NE(sink.ToJson().find("component.solve"), std::string::npos);
}

TEST(TraceTest, CappedSinkCountsDropsAndStaysValid) {
  obs::TraceSink sink(/*max_events=*/4);
  for (int i = 0; i < 8; ++i) {
    obs::TraceSpan span(&sink, "tiny");
  }
  EXPECT_LE(sink.NumEvents(), 4u);
  EXPECT_GT(sink.DroppedEvents(), 0u);
  const obs::ValidationResult r = obs::ValidateTraceJson(sink.ToJson());
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(ObsTest, SolutionsByteIdenticalWithObservabilityOnAndOff) {
  const Graph g = ChungLuPowerLaw(20000, 2.3, 5.0, /*seed=*/3);
  const std::function<MisSolution(const Graph&)> algorithms[] = {
      [](const Graph& g) { return RunBDOne(g); },
      [](const Graph& g) { return RunBDTwo(g); },
      [](const Graph& g) { return RunLinearTime(g); },
      [](const Graph& g) { return RunNearLinear(g); },
  };
  for (const auto& solve : algorithms) {
    const MisSolution off = solve(g);
    obs::TraceSink trace;
    obs::MetricsRegistry metrics;
    obs::ProgressSampler sampler(/*every=*/64);
    MisSolution on;
    {
      obs::ScopedObservability scope(&trace, &metrics, &sampler);
      on = solve(g);
    }
    // Sinks only observe: identical bytes, identical counters.
    EXPECT_EQ(on.in_set, off.in_set);
    EXPECT_EQ(on.size, off.size);
    EXPECT_EQ(on.rules.TotalExact(), off.rules.TotalExact());
    EXPECT_EQ(on.rules.peels, off.rules.peels);
#ifndef RPMIS_NO_OBS
    // And the observing run actually observed something.
    EXPECT_GT(trace.NumEvents(), 0u);
#endif
  }
}

TEST(ObsTest, ProgressSamplerSeesSolverStream) {
#ifdef RPMIS_NO_OBS
  GTEST_SKIP() << "solver hooks compiled out";
#endif
  const Graph g = ChungLuPowerLaw(20000, 2.3, 5.0, /*seed=*/3);
  obs::ProgressSampler sampler(/*every=*/512);
  {
    obs::ScopedObservability scope(nullptr, nullptr, &sampler);
    RunNearLinear(g);
  }
  EXPECT_GT(sampler.Events(), 0u);
  const std::vector<obs::ProgressSample> samples = sampler.Samples();
  ASSERT_FALSE(samples.empty());
  double prev = 0.0;
  for (const obs::ProgressSample& s : samples) {
    EXPECT_GE(s.seconds, prev);
    prev = s.seconds;
    EXPECT_NE(s.solution_size, obs::kProgressFieldAbsent);
    EXPECT_NE(s.live_vertices, obs::kProgressFieldAbsent);
    EXPECT_FALSE(s.label.empty());
  }
}

TEST(HistogramTest, RecordsIntoLogBucketsAndPublishes) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.MeanSeconds(), 0.0);
  EXPECT_EQ(h.QuantileSeconds(0.5), 0.0);

  h.Record(0.5e-6);   // <= 1us -> bucket 0
  h.Record(3e-6);     // -> bucket 2 (le 4us)
  h.Record(100e-6);   // -> bucket 7 (le 128us)
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(7), 1u);
  EXPECT_NEAR(h.SumSeconds(), 103.5e-6, 1e-9);
  EXPECT_NEAR(h.MeanSeconds(), 34.5e-6, 1e-9);
  // Quantiles come back as bucket upper edges.
  EXPECT_DOUBLE_EQ(h.QuantileSeconds(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(h.QuantileSeconds(0.5), 4e-6);
  EXPECT_DOUBLE_EQ(h.QuantileSeconds(1.0), 128e-6);
  EXPECT_DOUBLE_EQ(h.QuantileSeconds(0.99), 128e-6);  // nearest rank

  obs::MetricsRegistry metrics;
  h.PublishTo(metrics, "lat");
  EXPECT_EQ(metrics.Counter("lat.count"), 3u);
  EXPECT_EQ(metrics.Counter("lat.sum_us"), 104u);  // rounded
  EXPECT_EQ(metrics.Counter("lat.le_us.4"), 1u);
  EXPECT_EQ(metrics.Counter("lat.le_us.128"), 1u);
  EXPECT_FALSE(metrics.Contains("lat.le_us.2"));  // empty buckets omitted
  EXPECT_NEAR(metrics.Gauge("lat.mean_us"), 34.5, 1e-6);
  EXPECT_DOUBLE_EQ(metrics.Gauge("lat.p50_us"), 4.0);
  EXPECT_DOUBLE_EQ(metrics.Gauge("lat.p99_us"), h.QuantileSeconds(0.99) * 1e6);

  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.SumSeconds(), 0.0);
}

TEST(HistogramTest, ClampsExtremes) {
  obs::LatencyHistogram h;
  h.Record(-1.0);     // negative -> bucket 0
  h.Record(1e12);     // beyond the last edge -> last bucket
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(obs::LatencyHistogram::kBuckets - 1), 1u);
}

TEST(ObsTest, ScopedObservabilityNestsAndRestores) {
  obs::TraceSink outer_sink;
  EXPECT_EQ(obs::Trace(), nullptr);
  {
    obs::ScopedObservability outer(&outer_sink, nullptr, nullptr);
#ifndef RPMIS_NO_OBS
    EXPECT_EQ(obs::Trace(), &outer_sink);
#endif
    {
      obs::TraceSink inner_sink;
      obs::ScopedObservability inner(&inner_sink, nullptr, nullptr);
#ifndef RPMIS_NO_OBS
      EXPECT_EQ(obs::Trace(), &inner_sink);
#endif
    }
#ifndef RPMIS_NO_OBS
    EXPECT_EQ(obs::Trace(), &outer_sink);
#endif
  }
  EXPECT_EQ(obs::Trace(), nullptr);
}

}  // namespace
}  // namespace rpmis
