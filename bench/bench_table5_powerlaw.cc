// Table 5: power-law random graphs PLR1..PLR9 with growth exponent
// beta = 1.9 .. 2.7 (scaled from the paper's 10^7 vertices). Gaps of
// Greedy, DU, SemiE and BDOne to the independence number.
//
// Expected shape: "power-law random graphs are actually very easy":
// BDOne certifies a maximum independent set on every instance (gap 0*);
// DU also reaches gap 0 but cannot certify it; Greedy and SemiE leave
// real gaps.
#include "baselines/du.h"
#include "baselines/greedy.h"
#include "baselines/semi_external.h"
#include "bench_util.h"
#include "exact/vc_solver.h"
#include "graph/generators.h"
#include "mis/bdone.h"

using namespace rpmis;

int main(int argc, char** argv) {
  const bool fast = bench::HasFlag(argc, argv, "--fast");
  ObsSession obs("bench_table5", argc, argv);
  bench::PrintHeader(
      "Table 5 - power-law random graphs, beta = 1.9 .. 2.7",
      "BDOne reports certified maximum independent sets (0*) on all PLR "
      "graphs; DU hits 0 without a certificate; Greedy/SemiE leave gaps.");

  const Vertex n = fast ? 20000 : 200000;
  const std::vector<bench::NamedAlgorithm> algos = {
      {"Greedy", [](const Graph& g) { return RunGreedy(g); }},
      {"DU", [](const Graph& g) { return RunDU(g); }},
      {"SemiE", [](const Graph& g) { return RunSemiE(g); }},
      {"BDOne", [](const Graph& g) { return RunBDOne(g); }},
  };

  TablePrinter table(
      {"Graph", "beta", "alpha", "Greedy", "DU", "SemiE", "BDOne"});
  int index = 1;
  for (double beta = 1.9; beta < 2.75; beta += 0.1, ++index) {
    if (fast && index > 3) break;
    std::string dataset = "PLR";
    dataset += std::to_string(index);
    const uint64_t seed = 500 + static_cast<uint64_t>(index);
    Graph g = ChungLuPowerLaw(n, beta, 3.0, seed);
    VcSolverOptions exact_opt;
    exact_opt.time_limit_seconds = fast ? 5.0 : 30.0;
    VcSolverResult exact;
    {
      ObsSession::Run run = obs.Start("exact", dataset, seed);
      Timer t;
      exact = SolveExactMis(g, exact_opt);
      run.NoteSeconds(t.Seconds());
      run.record().AddNumber("solution.size", static_cast<double>(exact.size));
      run.record().AddNumber("exact.proven_optimal",
                             exact.proven_optimal ? 1.0 : 0.0);
    }
    std::vector<std::string> row{dataset, FormatDouble(beta, 1),
                                 (exact.proven_optimal ? "" : ">=") +
                                     FormatCount(exact.size)};
    for (const auto& algo : algos) {
      const MisSolution sol = bench::MeasureChecked(obs, algo, g, dataset).sol;
      std::string cell = std::to_string(static_cast<int64_t>(exact.size) -
                                        static_cast<int64_t>(sol.size));
      if (sol.provably_maximum) cell += "*";
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::cout << "(* = certified maximum via Theorem 6.1 with empty residual)\n";
  return 0;
}
