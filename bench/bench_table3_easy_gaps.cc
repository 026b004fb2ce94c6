// Table 3: gap of each algorithm's independent set to the independence
// number on the 12 easy instances, with NearLinear's accuracy and kernel
// size. The independence number comes from the exact branch-and-reduce
// solver (VCSolver substitute); rows where it timed out are flagged with
// '>=' and measure against its best-found solution instead.
#include "baselines/du.h"
#include "baselines/greedy.h"
#include "baselines/semi_external.h"
#include "bench_util.h"
#include "exact/vc_solver.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"

using namespace rpmis;

int main(int argc, char** argv) {
  const bool fast = bench::HasFlag(argc, argv, "--fast");
  ObsSession obs("bench_table3", argc, argv);
  bench::PrintHeader(
      "Table 3 - gap to the independence number (easy instances)",
      "Greedy >> DU, SemiE > BDOne > BDTwo/LinearTime > NearLinear; "
      "NearLinear accuracy >= 99.895%, certifies optimality (*) on most "
      "power-law graphs via an empty kernel.");

  const std::vector<bench::NamedAlgorithm> algos = {
      {"Greedy", [](const Graph& g) { return RunGreedy(g); }},
      {"DU", [](const Graph& g) { return RunDU(g); }},
      {"SemiE", [](const Graph& g) { return RunSemiE(g); }},
      {"BDOne", [](const Graph& g) { return RunBDOne(g); }},
      {"BDTwo", [](const Graph& g) { return RunBDTwo(g); }},
      {"LinearTime", [](const Graph& g) { return RunLinearTime(g); }},
      {"NearLinear", [](const Graph& g) { return RunNearLinear(g); }},
  };

  TablePrinter table({"Graph", "alpha", "Greedy", "DU", "SemiE", "BDOne",
                      "BDTwo", "LinearT", "NearLin", "NL acc", "NL kernel"});
  for (const auto& spec : bench::MaybeSubsample(EasyDatasets(), fast, 3)) {
    Graph g = LoadDataset(spec);
    VcSolverOptions exact_opt;
    exact_opt.time_limit_seconds = fast ? 5.0 : 30.0;
    VcSolverResult exact;
    {
      ObsSession::Run run = obs.Start("exact", spec.name, /*seed=*/0);
      Timer t;
      exact = SolveExactMis(g, exact_opt);
      run.NoteSeconds(t.Seconds());
      run.record().AddNumber("solution.size", static_cast<double>(exact.size));
      run.record().AddNumber("exact.proven_optimal",
                             exact.proven_optimal ? 1.0 : 0.0);
    }

    std::vector<std::string> row{spec.name,
                                 (exact.proven_optimal ? "" : ">=") +
                                     FormatCount(exact.size)};
    uint64_t nl_size = 0, nl_kernel = 0;
    bool nl_certified = false;
    for (const auto& algo : algos) {
      const MisSolution sol = bench::MeasureChecked(obs, algo, g, spec.name).sol;
      const int64_t gap = static_cast<int64_t>(exact.size) -
                          static_cast<int64_t>(sol.size);
      std::string cell = std::to_string(gap);
      if (sol.provably_maximum) cell += "*";
      row.push_back(cell);
      if (algo.name == "NearLinear") {
        nl_size = sol.size;
        nl_kernel = sol.kernel_vertices;
        nl_certified = sol.provably_maximum;
      }
    }
    row.push_back(FormatPercent(
        exact.size == 0 ? 1.0
                        : static_cast<double>(nl_size) / exact.size));
    row.push_back(nl_certified && nl_kernel == 0 ? "0"
                                                 : FormatCount(nl_kernel));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "(* = the algorithm certifies its set as maximum: no peel "
               "left a residual)\n";
  return 0;
}
