// Figure 7: processing time and memory of Greedy, DU, SemiE and BDOne on
// the easy instances. Memory is each run's fork-isolated peak-RSS growth
// (the paper uses memusage(1)); graph construction is excluded by
// building the graph before the fork.
//
// Expected shape: Greedy fastest, BDOne faster than DU (lazy bucket
// updates), SemiE slowest (two-k swaps); all four use similar memory.
#include "baselines/du.h"
#include "baselines/greedy.h"
#include "baselines/semi_external.h"
#include "bench_util.h"
#include "benchkit/run.h"
#include "mis/bdone.h"

using namespace rpmis;

int main(int argc, char** argv) {
  const bool fast = bench::HasFlag(argc, argv, "--fast");
  ObsSession obs("bench_fig7", argc, argv);
  bench::PrintHeader(
      "Figure 7 - time & memory: existing polynomial baselines vs BDOne",
      "Greedy fastest; BDOne faster than DU; SemiE slowest; similar memory "
      "across all four.");

  const std::vector<bench::NamedAlgorithm> algos = {
      {"Greedy", [](const Graph& g) { return RunGreedy(g); }},
      {"DU", [](const Graph& g) { return RunDU(g); }},
      {"SemiE", [](const Graph& g) { return RunSemiE(g); }},
      {"BDOne", [](const Graph& g) { return RunBDOne(g); }},
  };

  TablePrinter time_table({"Graph", "Greedy", "DU", "SemiE", "BDOne"});
  TablePrinter mem_table({"Graph", "Greedy", "DU", "SemiE", "BDOne"});
  for (const auto& spec : bench::MaybeSubsample(EasyDatasets(), fast, 3)) {
    Graph g = LoadDataset(spec);
    std::vector<std::string> trow{spec.name}, mrow{spec.name};
    for (const auto& algo : algos) {
      // The solve runs in a fork, so the parent-side metrics registry
      // stays empty; the record carries the child's wall/CPU/paging
      // figures instead.
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
    time_table.AddRow(std::move(trow));
    mem_table.AddRow(std::move(mrow));
  }
  std::cout << "-- (a) processing time --\n";
  time_table.Print(std::cout);
  std::cout << "\n-- (b) peak memory growth during the run --\n";
  mem_table.Print(std::cout);
  return 0;
}
