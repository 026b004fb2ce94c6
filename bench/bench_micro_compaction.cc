// Compaction micro-benchmark: NearLinear end-to-end with the mid-run
// compaction engine (default) versus the `--no-compaction` escape hatch,
// on a Chung–Lu power-law graph (default ≥10M edges; --fast: ~2M).
//
// Both sides must produce byte-identical solutions — the bench exits
// non-zero on any mismatch, so the --fast run doubles as a ctest smoke
// for the mapping stack. The LP prepass is disabled here because it runs
// once, before the peeling loop, on the identical kernel either way: it
// adds equal time to both sides and only dilutes the effect under test.
// Per-run counters (rebuilds, slots scanned vs kept) are in the table
// below and, in full, in the --metrics / --records lines.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchkit/table.h"
#include "graph/generators.h"
#include "mis/near_linear.h"
#include "support/parallel.h"
#include "support/timer.h"

namespace rpmis::bench {
namespace {

struct Side {
  std::string label;
  double seconds = 0.0;  // best over reps
  MisSolution sol;       // from the last rep (all reps identical)
};

Side Run(ObsSession& obs, const std::string& label, const Graph& g,
         bool compaction, double threshold, int reps) {
  Side out;
  out.label = label;
  for (int r = 0; r < reps; ++r) {
    NearLinearOptions opt;
    opt.lp_reduction = false;
    opt.compaction.enabled = compaction;
    opt.compaction.threshold = threshold;
    ObsSession::Run run = obs.Start("nearlinear", "chung-lu-powerlaw", 42);
    run.record().AddString("config", label);
    Timer t;
    MisSolution sol = RunNearLinear(g, nullptr, opt);
    const double s = t.Seconds();
    run.NoteSeconds(s);
    run.NoteSolution(sol);
    if (r == 0 || s < out.seconds) out.seconds = s;
    out.sol = std::move(sol);
  }
  return out;
}

std::string Fmt(double v, const char* spec = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace
}  // namespace rpmis::bench

int main(int argc, char** argv) {
  using namespace rpmis;
  using namespace rpmis::bench;

  const bool fast = HasFlag(argc, argv, "--fast");
  const Vertex n = fast ? 200'000 : 1'000'000;
  const int reps = fast ? 1 : 3;
  ObsSession obs("bench_micro_compaction", argc, argv);

  PrintHeader("micro: mid-run compaction (NearLinear)",
              "rebuilding the alive subgraph keeps reduction/peeling scans "
              "on live data; solutions stay byte-identical");

  std::printf("generating Chung-Lu power-law (n=%llu, beta=3.5, avg=20) ...\n",
              static_cast<unsigned long long>(n));
  const Graph g = ChungLuPowerLaw(n, 3.5, 20.0, 42);
  std::printf("n=%llu m=%llu threads=%zu reps=%d (best-of)\n",
              static_cast<unsigned long long>(g.NumVertices()),
              static_cast<unsigned long long>(g.NumEdges()), NumThreads(),
              reps);

  std::vector<Side> sides;
  sides.push_back(Run(obs, "compaction (thr=0.5)", g, true, 0.5, reps));
  sides.push_back(Run(obs, "no-compaction", g, false, 0.5, reps));

  TablePrinter table(
      {"config", "sec", "rebuilds", "slots scanned", "slots kept"});
  for (const Side& s : sides) {
    const CompactionStats& c = s.sol.compaction;
    table.AddRow({s.label, Fmt(s.seconds),
                  std::to_string(c.compactions),
                  std::to_string(c.slots_scanned),
                  std::to_string(c.slots_kept)});
  }
  table.Print(std::cout);

  const Side& on = sides[0];
  const Side& off = sides[1];
  const bool identical = on.sol.in_set == off.sol.in_set &&
                         on.sol.size == off.sol.size;
  std::printf("\nsolutions byte-identical: %s (size %llu)\n",
              identical ? "yes" : "NO (BUG)",
              static_cast<unsigned long long>(on.sol.size));

  const double ratio = on.seconds > 0 ? off.seconds / on.seconds : 0.0;
  std::printf("end-to-end speedup (no-compaction / compaction): %.2fx %s\n",
              ratio, ratio >= 2.0 ? "(>= 2x: PASS)" : "(< 2x)");

  return identical ? 0 : 1;
}
