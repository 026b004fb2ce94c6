#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "benchkit/datasets.h"
#include "benchkit/run.h"
#include "benchkit/table.h"
#include "graph/algorithms.h"
#include "mis/near_linear.h"

namespace rpmis {
namespace {

TEST(DatasetsTest, SuiteShape) {
  EXPECT_EQ(AllDatasets().size(), 20u);
  EXPECT_EQ(EasyDatasets().size(), 12u);
  EXPECT_EQ(HardDatasets().size(), 8u);
  EXPECT_EQ(DatasetByName("GrQc").paper_n, 5242u);
  EXPECT_TRUE(DatasetByName("it-2004").hard);
}

TEST(DatasetsTest, GeneratorsAreDeterministic) {
  const auto& spec = DatasetByName("GrQc");
  Graph a = spec.make();
  Graph b = spec.make();
  EXPECT_EQ(a.CollectEdges(), b.CollectEdges());
}

TEST(DatasetsTest, EasyInstancesArePowerLawLike) {
  // The reducing-peeling premise: plenty of degree-<=2 vertices.
  for (const auto& spec : EasyDatasets()) {
    Graph g = spec.make();
    DegreeStats s = ComputeDegreeStats(g);
    EXPECT_GT(static_cast<double>(s.num_degree_le2), 0.05 * g.NumVertices())
        << spec.name;
    EXPECT_GT(s.max_degree, 4 * s.avg_degree) << spec.name;
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Graph", "n", "m"});
  t.AddRow({"GrQc", "5,242", "14,484"});
  t.AddRow({"x", "1", "2"});
  std::ostringstream out;
  t.Print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("| Graph"), std::string::npos);
  EXPECT_NE(s.find("5,242"), std::string::npos);
  // All lines the same length.
  std::istringstream lines(s);
  std::string line, first;
  std::getline(lines, first);
  while (std::getline(lines, line)) EXPECT_EQ(line.size(), first.size());
}

TEST(FormattersTest, Counts) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
}

TEST(FormattersTest, SecondsAndKb) {
  EXPECT_EQ(FormatSeconds(0.5), "500.0ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.50s");
  EXPECT_EQ(FormatKb(512), "512KB");
  EXPECT_EQ(FormatKb(2048), "2.0MB");
  EXPECT_EQ(FormatPercent(0.99895), "99.895%");
}

TEST(RunTest, MeasureInChildReturnsPayload) {
  ChildMeasurement m = MeasureInChild([](uint64_t payload[4]) {
    // Allocate ~8MB so the RSS delta is visible.
    std::vector<uint64_t> big(1 << 20, 1);
    payload[0] = big[123] + 41;
    payload[1] = 7;
  });
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.payload[0], 42u);
  EXPECT_EQ(m.payload[1], 7u);
  EXPECT_GE(m.seconds, 0.0);
  EXPECT_GT(m.peak_rss_delta_kb, 1000u);
}

TEST(RunTest, MeasureInChildReturnsChildRusage) {
  // The child's own CPU and fault accounting rides back on the pipe so
  // run records can attribute resources to the measured process, not the
  // parent harness.
  ChildMeasurement m = MeasureInChild([](uint64_t payload[4]) {
    // Enough work to register on the 4ms-granularity rusage clocks, and a
    // fresh allocation so the child takes minor faults of its own.
    std::vector<uint64_t> big(1 << 21, 1);
    uint64_t sink = 0;
    for (uint64_t i = 0; i < 80'000'000; ++i) sink += i ^ big[i % big.size()];
    payload[0] = sink != 0 ? 1 : 2;
  });
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.utime_seconds + m.stime_seconds, 0.0);
  EXPECT_GT(m.minor_faults, 0u);
  EXPECT_TRUE(m.rss_available);
}

TEST(RunTest, MeasureInChildZeroesRusageOnFailure) {
  ChildMeasurement m = MeasureInChild([](uint64_t payload[4]) {
    payload[0] = 1;
    _exit(9);
  });
  EXPECT_FALSE(m.ok);
  EXPECT_EQ(m.utime_seconds, 0.0);
  EXPECT_EQ(m.stime_seconds, 0.0);
  EXPECT_EQ(m.minor_faults, 0u);
  EXPECT_EQ(m.major_faults, 0u);
}

TEST(RunTest, RssReadersReportUnavailability) {
  // Hardened containers can make /proc/self/status unreadable; the Try
  // readers must say so explicitly instead of returning a silent 0.
  setenv("RPMIS_PROC_STATUS_PATH", "/nonexistent/status", 1);
  EXPECT_FALSE(TryPeakRssKb().has_value());
  unsetenv("RPMIS_PROC_STATUS_PATH");
  ASSERT_TRUE(TryPeakRssKb().has_value());
  EXPECT_GT(*TryPeakRssKb(), 0u);
}

TEST(RunTest, MeasureInChildReportsNonzeroExit) {
  // Regression: a child that dies after filling the payload must yield
  // ok = false with a zeroed payload, never partial data.
  ChildMeasurement m = MeasureInChild([](uint64_t payload[4]) {
    payload[0] = 99;
    _exit(3);
  });
  EXPECT_FALSE(m.ok);
  for (uint64_t v : m.payload) EXPECT_EQ(v, 0u);
  EXPECT_EQ(m.peak_rss_delta_kb, 0u);
}

TEST(RunTest, MeasureInChildReportsSignalledChild) {
  ChildMeasurement m = MeasureInChild([](uint64_t payload[4]) {
    payload[1] = 7;
    raise(SIGKILL);
  });
  EXPECT_FALSE(m.ok);
  for (uint64_t v : m.payload) EXPECT_EQ(v, 0u);
}

TEST(RunTest, MeasureInChildInProcessFallbackReportsOk) {
  // Force the degraded no-fork path and check it honours the same
  // contract as the forked path: ok = true with the payload filled.
  setenv("RPMIS_MEASURE_IN_PROCESS", "1", 1);
  ChildMeasurement m = MeasureInChild([](uint64_t payload[4]) {
    payload[0] = 42;
    payload[3] = 7;
  });
  unsetenv("RPMIS_MEASURE_IN_PROCESS");
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.payload[0], 42u);
  EXPECT_EQ(m.payload[3], 7u);
  EXPECT_GE(m.seconds, 0.0);
}

TEST(RunTest, MeasureInChildInProcessFallbackNeverReturnsPartialPayload) {
  // Regression: a body that throws mid-fill used to leave the payload
  // half-written with ok unset but the fields dirty. The fallback must
  // behave like a crashed child: ok = false, everything zeroed, and the
  // exception must not escape to the caller.
  setenv("RPMIS_MEASURE_IN_PROCESS", "1", 1);
  ChildMeasurement m = MeasureInChild([](uint64_t payload[4]) {
    payload[0] = 99;
    payload[1] = 100;
    throw std::runtime_error("solver blew up");
  });
  unsetenv("RPMIS_MEASURE_IN_PROCESS");
  EXPECT_FALSE(m.ok);
  for (uint64_t v : m.payload) EXPECT_EQ(v, 0u);
  EXPECT_EQ(m.peak_rss_delta_kb, 0u);
  EXPECT_EQ(m.seconds, 0.0);
}

TEST(RunTest, MeasureInChildLeavesNoZombies) {
  (void)MeasureInChild([](uint64_t payload[4]) { payload[0] = 1; });
  (void)MeasureInChild([](uint64_t[4]) { _exit(7); });
  (void)MeasureInChild([](uint64_t[4]) { raise(SIGSEGV); });
  // Every child must have been reaped, in success and failure branches
  // alike: with no outstanding children, waitpid reports ECHILD.
  int status = 0;
  errno = 0;
  const pid_t r = waitpid(-1, &status, WNOHANG);
  EXPECT_EQ(r, -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(DatasetsTest, HardInstancesResistKernelization) {
  // The defining property of the hard suite: a surviving kernel at the
  // first peel, so local search has real work (Figures 10/15).
  const DatasetSpec& spec = DatasetByName("cnr-2000");
  Graph g = spec.make();
  MisSolution nl = RunNearLinear(g);
  EXPECT_GT(nl.kernel_vertices, 1000u);
  EXPECT_GT(nl.rules.peels, 0u);
  EXPECT_FALSE(nl.provably_maximum);
}

}  // namespace
}  // namespace rpmis
