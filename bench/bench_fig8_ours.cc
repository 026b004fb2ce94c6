// Figure 8: processing time and memory of BDOne, BDTwo, LinearTime and
// NearLinear, with the exact solver as the reference upper line.
//
// Expected shape: BDOne ~ LinearTime ~ NearLinear in time and memory;
// BDTwo slower and ~3x the memory (6m adjacency-list representation);
// VCSolver far above everything.
#include "bench_util.h"
#include "benchkit/run.h"
#include "exact/vc_solver.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"

using namespace rpmis;

int main(int argc, char** argv) {
  const bool fast = bench::HasFlag(argc, argv, "--fast");
  ObsSession obs("bench_fig8", argc, argv);
  bench::PrintHeader(
      "Figure 8 - time & memory: our four algorithms (+ VCSolver reference)",
      "BDOne ~ LinearTime ~ NearLinear in time/memory; BDTwo ~3x memory and "
      "slower; VCSolver one or more orders of magnitude above.");

  const std::vector<bench::NamedAlgorithm> algos = {
      {"BDOne", [](const Graph& g) { return RunBDOne(g); }},
      {"BDTwo", [](const Graph& g) { return RunBDTwo(g); }},
      {"LinearTime", [](const Graph& g) { return RunLinearTime(g); }},
      {"NearLinear", [](const Graph& g) { return RunNearLinear(g); }},
  };

  TablePrinter time_table(
      {"Graph", "BDOne", "BDTwo", "LinearT", "NearLin", "VCSolver"});
  TablePrinter mem_table(
      {"Graph", "BDOne", "BDTwo", "LinearT", "NearLin", "VCSolver"});
  for (const auto& spec : bench::MaybeSubsample(EasyDatasets(), fast, 3)) {
    Graph g = LoadDataset(spec);
    std::vector<std::string> trow{spec.name}, mrow{spec.name};
    for (const auto& algo : algos) {
      // Fork-isolated solve: the record gets the child's rusage figures
      // (wall/CPU time, faults, peak-RSS growth) via NoteChildMeasurement.
      ObsSession::Run run = obs.Start(algo.name, spec.name, /*seed=*/0);
      ChildMeasurement m = MeasureInChild([&](uint64_t payload[4]) {
        MisSolution sol = bench::RunChecked(algo, g);
        payload[0] = sol.size;
      });
      bench::NoteChildMeasurement(run.record(), m);
      if (m.ok) {
        run.record().AddNumber("solution.size",
                               static_cast<double>(m.payload[0]));
      }
      run.Commit();
      trow.push_back(m.ok ? FormatSeconds(m.seconds) : "fail");
      mrow.push_back(m.ok ? FormatKb(m.peak_rss_delta_kb) : "fail");
    }
    {
      ObsSession::Run run = obs.Start("exact", spec.name, /*seed=*/0);
      ChildMeasurement m = MeasureInChild([&](uint64_t payload[4]) {
        VcSolverOptions opt;
        opt.time_limit_seconds = fast ? 5.0 : 30.0;
        VcSolverResult r = SolveExactMis(g, opt);
        payload[0] = r.size;
        payload[1] = r.proven_optimal ? 1 : 0;
      });
      bench::NoteChildMeasurement(run.record(), m);
      if (m.ok) {
        run.record().AddNumber("solution.size",
                               static_cast<double>(m.payload[0]));
        run.record().AddNumber("exact.proven_optimal",
                               static_cast<double>(m.payload[1]));
      }
      run.Commit();
      std::string t = m.ok ? FormatSeconds(m.seconds) : "fail";
      if (m.ok && m.payload[1] == 0) t += " (cap)";
      trow.push_back(t);
      mrow.push_back(m.ok ? FormatKb(m.peak_rss_delta_kb) : "fail");
    }
    time_table.AddRow(std::move(trow));
    mem_table.AddRow(std::move(mrow));
  }
  std::cout << "-- (a) processing time --\n";
  time_table.Print(std::cout);
  std::cout << "\n-- (b) peak memory growth during the run --\n";
  mem_table.Print(std::cout);
  return 0;
}
