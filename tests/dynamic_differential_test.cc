// Randomized differential acceptance tests for the dynamic-update engine
// (ISSUE 5): over >= 10 random 1k-update streams on G(n,p) and Chung-Lu
// graphs, the maintained set must be independent and maximal at EVERY
// step and within 1% of a from-scratch LinearTime solve. The full-check
// harness lives in dynamic/differential.h; scripts/check_dynamic.sh
// re-runs this binary at RPMIS_THREADS=8 and the ASan suite covers it
// via scripts/check_sanitize.sh.
#include "dynamic/differential.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace rpmis {
namespace {

DifferentialOptions AcceptanceOptions() {
  DifferentialOptions options;
  options.check_every = 1;
  options.min_ratio = 0.99;
  return options;
}

void RunAcceptanceStream(const Graph& g, uint64_t stream_seed,
                         const DifferentialOptions& options) {
  const auto updates = RandomUpdateStream(g, 1000, stream_seed);
  const DifferentialReport report =
      RunDifferentialStream(g, updates, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.updates_applied, 1000u);
  EXPECT_EQ(report.steps_checked, 1000u);
}

TEST(DynamicDifferentialTest, GnpStreams) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = ErdosRenyiGnp(2000, 2.0 / 2000.0, /*seed=*/seed);
    RunAcceptanceStream(g, /*stream_seed=*/100 + seed, AcceptanceOptions());
  }
}

TEST(DynamicDifferentialTest, ChungLuStreams) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Graph g = ChungLuPowerLaw(2000, 3.0, 4.0, /*seed=*/seed);
    RunAcceptanceStream(g, /*stream_seed=*/200 + seed, AcceptanceOptions());
  }
}

TEST(DynamicDifferentialTest, EdgeHeavyStream) {
  const Graph g = ErdosRenyiGnp(1500, 3.0 / 1500.0, /*seed=*/42);
  StreamOptions stream;
  stream.insert_vertex_weight = 0.0;
  stream.delete_vertex_weight = 0.0;
  const auto updates = RandomUpdateStream(g, 1000, /*seed=*/300, stream);
  const DifferentialReport report =
      RunDifferentialStream(g, updates, AcceptanceOptions());
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// An aggressive quality gate and a tiny cone budget make full re-solves
// and component fallbacks actually fire; the maintained set must keep the
// same guarantees through them.
TEST(DynamicDifferentialTest, AggressiveResolveStream) {
  const Graph g = ChungLuPowerLaw(2000, 3.5, 5.0, /*seed=*/9);
  DifferentialOptions options = AcceptanceOptions();
  options.policy.min_slack = 2;
  options.policy.max_gap = 0.0;
  options.policy.min_cone = 32;
  options.policy.cone_fraction = 0.0;
  const auto updates = RandomUpdateStream(g, 1000, /*seed=*/400);
  const DifferentialReport report = RunDifferentialStream(g, updates, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Tiny graphs hit the degenerate corners (empty graphs, single vertices,
// everything deleted then re-inserted). A percentage bound is meaningless
// when the optimum is 3 vertices, so this stream forces aggressive full
// re-solves and judges quality by absolute gap instead: never more than
// one vertex behind from-scratch.
TEST(DynamicDifferentialTest, TinyGraphTortureStream) {
  const Graph g = ErdosRenyiGnp(12, 0.3, /*seed=*/3);
  StreamOptions stream;
  stream.insert_vertex_weight = 1.0;
  stream.delete_vertex_weight = 1.0;
  const auto updates = RandomUpdateStream(g, 500, /*seed=*/77, stream);
  DifferentialOptions options = AcceptanceOptions();
  options.abs_slack = 1;
  options.policy.min_slack = 0;
  options.policy.max_gap = 0.0;
  const DifferentialReport report =
      RunDifferentialStream(g, updates, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace rpmis
