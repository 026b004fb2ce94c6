// Ablation (DESIGN.md §3): what each NearLinear prepass buys.
//
// Runs NearLinear with all four combinations of {one-pass dominance, LP
// reduction} on the easy suite, reporting time, kernel size and solution
// size. The paper's claim: the prepasses shrink Δ (making the main loop
// effectively linear) and the kernel, at negligible cost.
//
// Every solution must be a maximal independent set, and when all four
// configurations certify a maximum (Theorem 6.1) their sizes must agree;
// the bench exits non-zero otherwise, so the --fast run doubles as a
// ctest smoke.
#include <algorithm>

#include "bench_util.h"
#include "mis/near_linear.h"
#include "support/timer.h"

using namespace rpmis;

int main(int argc, char** argv) {
  const bool fast = bench::HasFlag(argc, argv, "--fast");
  ObsSession obs("bench_ablation_nearlinear", argc, argv);
  bench::PrintHeader(
      "Ablation - NearLinear prepasses (one-pass dominance / LP)",
      "Prepasses shrink the kernel and the peel count at near-zero cost; "
      "the dominance prepass is the bigger lever on power-law graphs.");

  struct Config {
    std::string name;
    NearLinearOptions opts;
  };
  std::vector<Config> configs;
  for (bool opd : {true, false}) {
    for (bool lp : {true, false}) {
      NearLinearOptions o;
      o.one_pass_dominance = opd;
      o.lp_reduction = lp;
      configs.push_back({std::string(opd ? "+dom" : "-dom") +
                             (lp ? "+lp" : "-lp"),
                         o});
    }
  }

  TablePrinter table({"Graph", "config", "time", "kernel n", "peels", "|I|"});
  bool ok = true;
  for (const auto& spec : bench::MaybeSubsample(EasyDatasets(), fast, 2)) {
    Graph g = LoadDataset(spec);
    bool all_certified = true;
    std::vector<uint64_t> sizes;
    for (const auto& cfg : configs) {
      ObsSession::Run run = obs.Start("nearlinear", spec.name, /*seed=*/0);
      run.record().AddString("config", cfg.name);
      Timer t;
      MisSolution sol = RunNearLinear(g, nullptr, cfg.opts);
      const double seconds = t.Seconds();
      run.NoteSeconds(seconds);
      run.NoteSolution(sol);
      if (!IsMaximalIndependentSet(g, sol.in_set)) {
        std::cerr << spec.name << " " << cfg.name
                  << ": not a maximal independent set\n";
        ok = false;
      }
      all_certified = all_certified && sol.provably_maximum;
      sizes.push_back(sol.size);
      table.AddRow({spec.name, cfg.name, FormatSeconds(seconds),
                    FormatCount(sol.kernel_vertices),
                    FormatCount(sol.rules.peels), FormatCount(sol.size)});
    }
    if (all_certified &&
        std::adjacent_find(sizes.begin(), sizes.end(), std::not_equal_to<>()) !=
            sizes.end()) {
      std::cerr << spec.name << ": certified maxima differ in size\n";
      ok = false;
    }
  }
  table.Print(std::cout);
  return ok ? 0 : 1;
}
