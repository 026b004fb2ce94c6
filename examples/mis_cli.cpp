// rpmis command-line tool: compute an independent set (or vertex cover)
// of a graph file with any algorithm in the library.
//
// Usage:
//   mis_cli <file> [--format=edgelist|dimacs|metis]
//           [--algo=greedy|du|semie|bdone|bdtwo|lineartime|nearlinear|
//                   arw-lt|arw-nl|exact]
//           [--time=SECONDS] [--cover] [--out=solution.txt] [--per-component]
//           [--stats] [--no-compaction] [--compaction-threshold=F]
//           [--verify] [--updates=FILE]
//           [--trace=FILE] [--metrics=FILE] [--progress[=K]] [--records=FILE]
//
// The solution file lists one selected vertex id per line (original file
// ids are not preserved for edge lists with sparse ids; the tool reports
// the dense remapping convention).
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "baselines/du.h"
#include "baselines/greedy.h"
#include "baselines/semi_external.h"
#include "benchkit/obs_session.h"
#include "dynamic/engine.h"
#include "dynamic/update.h"
#include "exact/vc_solver.h"
#include "graph/io.h"
#include "localsearch/boosted.h"
#include "mis/bdone.h"
#include "mis/bdtwo.h"
#include "mis/linear_time.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "obs/metrics.h"
#include "support/timer.h"

using namespace rpmis;

namespace {

std::string OptionValue(int argc, char** argv, const std::string& key,
                        const std::string& fallback) {
  const std::string prefix = key + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

// Parses the numeric value of `flag` (or `fallback` when absent). The whole
// value must be a number; otherwise prints a diagnostic naming the flag and
// the value, and returns false.
bool NumberOption(int argc, char** argv, const std::string& flag,
                  const std::string& fallback, double* out) {
  const std::string value = OptionValue(argc, argv, flag, fallback);
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno == ERANGE) {
    std::cerr << "mis_cli: invalid value for " << flag << ": '" << value
              << "' (expected a number)\n";
    return false;
  }
  return true;
}

bool HasOption(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int Usage() {
  std::cerr
      << "usage: mis_cli <file> [--format=auto|edgelist|dimacs|metis|binary]\n"
         "               [--algo=greedy|du|semie|bdone|bdtwo|lineartime|\n"
         "                       nearlinear|arw-lt|arw-nl|exact]\n"
         "               [--time=SECONDS] [--cover] [--out=FILE] [--no-cache]\n"
         "               [--per-component]   (bdone/bdtwo/lineartime/nearlinear:\n"
         "                solve connected components independently, in parallel\n"
         "                across RPMIS_THREADS workers)\n"
         "               [--stats]           (print the run's metrics on stderr,\n"
         "                one `name value` line each — the snapshot --metrics\n"
         "                writes; bdone/bdtwo/lineartime/nearlinear and\n"
         "                --updates only)\n"
         "               [--no-compaction] [--compaction-threshold=F]\n"
         "                (bdone/lineartime/nearlinear only: mid-run alive-\n"
         "                subgraph rebuilds; F in (0,1], rebuild when active\n"
         "                < F * last build, default 0.5; the solution is\n"
         "                identical either way)\n"
         "               [--verify]          (re-check the output set is\n"
         "                independent and maximal, with a reason on failure)\n"
         "               [--updates=FILE]    (dynamic mode: solve with\n"
         "                lineartime, then maintain the set through the update\n"
         "                stream in FILE — `ae U V`, `de U V`, `av [N..]`,\n"
         "                `dv U`, '#' comments; ignores --algo)\n"
         "               [--trace=FILE]      (Chrome trace-event JSON of solver\n"
         "                phases; load in Perfetto or chrome://tracing)\n"
         "               [--metrics=FILE]    (counter/gauge snapshot as JSONL)\n"
         "               [--progress[=K]]    (sample solver progress every K\n"
         "                events, default 8192; lands in --records output)\n"
         "               [--records=FILE]    (self-describing JSONL run record;\n"
         "                \"-\" streams to stdout)\n";
  return 2;
}

// Writes the selected vertex ids (one per line) to --out or stdout.
int EmitSolution(const std::string& out_path, const std::vector<uint8_t>& in_set) {
  std::ostream* out = &std::cout;
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out = &file;
  }
  for (Vertex v = 0; v < in_set.size(); ++v) {
    if (in_set[v]) *out << v << "\n";
  }
  return 0;
}

// --updates mode: LinearTime-solve the loaded graph, maintain the set
// through the stream, verify against the final alive-induced graph, and
// emit the final set over the engine's (grown) universe.
int RunDynamicMode(ObsSession& obs, const Graph& g, const std::string& path,
                   const std::string& updates_path, const std::string& out_path,
                   bool want_stats, bool want_verify) {
  std::vector<GraphUpdate> updates;
  try {
    updates = LoadUpdateStream(updates_path);
  } catch (const std::exception& e) {
    std::cerr << "update stream error: " << e.what() << "\n";
    return 1;
  }

  ObsSession::Run run = obs.Start("dynamic", path, /*seed=*/0);
  Timer timer;
  DynamicMisEngine engine(g);
  const double solve_seconds = timer.Seconds();
  timer.Restart();
  try {
    engine.ApplyUpdates(updates);
  } catch (const std::exception& e) {
    std::cerr << "update stream error: " << e.what() << "\n";
    return 1;
  }
  const double apply_seconds = timer.Seconds();

  // The maintained set must be a valid MIS of the alive-induced current
  // graph (dead ids are isolated in the full-universe snapshot and would
  // confuse the maximality check).
  std::vector<Vertex> alive;
  for (Vertex v = 0; v < engine.NumVertices(); ++v) {
    if (engine.Exists(v)) alive.push_back(v);
  }
  const Graph sub = engine.CurrentGraph().InducedSubgraph(alive);
  std::vector<uint8_t> selector(sub.NumVertices(), 0);
  for (size_t i = 0; i < alive.size(); ++i) {
    selector[i] = engine.InSet(alive[i]) ? 1 : 0;
  }
  std::string why;
  if (!VerifyMis(sub, selector, &why)) {
    std::cerr << "internal error: maintained set invalid: " << why << "\n";
    return 1;
  }
  if (want_verify) {
    std::cerr << "verified: independent and maximal on the final graph ("
              << alive.size() << " alive vertices)\n";
  }

  std::cerr << "dynamic independent set: " << engine.Size() << " vertices (<= "
            << engine.UpperBound() << ") after " << updates.size()
            << " updates; solve " << solve_seconds << "s, apply "
            << apply_seconds << "s\n";

  engine.PublishMetrics(run.metrics());
  run.NoteSeconds(solve_seconds + apply_seconds);
  run.record().AddNumber("graph.vertices", static_cast<double>(g.NumVertices()));
  run.record().AddNumber("graph.edges", static_cast<double>(g.NumEdges()));
  run.record().AddNumber("updates.count", static_cast<double>(updates.size()));
  run.record().AddNumber("updates.apply_seconds", apply_seconds);
  run.record().AddNumber("solution.final_size",
                         static_cast<double>(engine.Size()));
  run.Commit();
  if (want_stats) std::cerr << obs::FormatMetrics(run.record().metrics);
  return EmitSolution(out_path, engine.Selector());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string path = argv[1];
  const std::string format = OptionValue(argc, argv, "--format", "auto");
  const std::string algo = OptionValue(argc, argv, "--algo", "nearlinear");
  double budget = 0.0;
  if (!NumberOption(argc, argv, "--time", "5", &budget)) return 2;
  const std::string out_path = OptionValue(argc, argv, "--out", "");
  const bool want_cover = HasOption(argc, argv, "--cover");
  const bool per_component = HasOption(argc, argv, "--per-component");
  const bool want_stats = HasOption(argc, argv, "--stats");
  const PerComponentOptions cc_opts{.parallel = true};
  CompactionOptions compaction;
  compaction.enabled = !HasOption(argc, argv, "--no-compaction");
  if (!NumberOption(argc, argv, "--compaction-threshold", "0.5",
                    &compaction.threshold)) {
    return 2;
  }
  if (!(compaction.threshold > 0.0 && compaction.threshold <= 1.0)) {
    std::cerr << "--compaction-threshold must be in (0, 1]\n";
    return 2;
  }

  // Owns the observability sinks (--trace/--metrics/--progress/--records)
  // for the whole invocation; the trace also covers the graph load below.
  ObsSession obs("mis_cli", argc, argv);

  Graph g;
  try {
    LoadOptions opts;
    opts.use_cache = !HasOption(argc, argv, "--no-cache");
    if (format == "auto") {
      opts.format = GraphFormat::kAuto;
    } else if (format == "edgelist") {
      opts.format = GraphFormat::kEdgeList;
    } else if (format == "dimacs") {
      opts.format = GraphFormat::kDimacs;
    } else if (format == "metis") {
      opts.format = GraphFormat::kMetis;
    } else if (format == "binary") {
      opts.format = GraphFormat::kBinary;
    } else {
      return Usage();
    }
    g = LoadGraphFile(path, opts);
  } catch (const std::exception& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "loaded: n = " << g.NumVertices() << ", m = " << g.NumEdges()
            << "\n";

  const std::string updates_path = OptionValue(argc, argv, "--updates", "");
  const bool want_verify = HasOption(argc, argv, "--verify");
  if (!updates_path.empty()) {
    if (want_cover) {
      std::cerr << "--updates does not combine with --cover\n";
      return 2;
    }
    return RunDynamicMode(obs, g, path, updates_path, out_path, want_stats,
                          want_verify);
  }

  ObsSession::Run run = obs.Start(algo, path, /*seed=*/0);
  Timer timer;
  std::vector<uint8_t> in_set;
  std::string certificate;
  const auto take = [&](MisSolution sol) {
    run.NoteSolution(sol);
    in_set = std::move(sol.in_set);
  };
  if (algo == "greedy") {
    in_set = RunGreedy(g).in_set;
  } else if (algo == "du") {
    in_set = RunDU(g).in_set;
  } else if (algo == "semie") {
    in_set = RunSemiE(g).in_set;
  } else if (algo == "bdone") {
    BDOneOptions opt{.compaction = compaction};
    take(per_component ? RunBDOnePerComponent(g, cc_opts, opt)
                       : RunBDOne(g, nullptr, opt));
  } else if (algo == "bdtwo") {
    take(per_component ? RunBDTwoPerComponent(g, cc_opts) : RunBDTwo(g));
  } else if (algo == "lineartime") {
    LinearTimeOptions opt{.compaction = compaction};
    take(per_component ? RunLinearTimePerComponent(g, cc_opts, opt)
                       : RunLinearTime(g, nullptr, opt));
  } else if (algo == "nearlinear") {
    NearLinearOptions opt;
    opt.compaction = compaction;
    MisSolution sol = per_component
                          ? RunNearLinearPerComponent(g, cc_opts, opt)
                          : RunNearLinear(g, nullptr, opt);
    if (sol.provably_maximum) certificate = "certified maximum (Theorem 6.1)";
    take(std::move(sol));
  } else if (algo == "arw-lt" || algo == "arw-nl") {
    BoostedOptions opt;
    opt.time_limit_seconds = budget;
    BoostedResult r = RunBoostedArw(
        g, algo == "arw-lt" ? BoostKind::kLinearTime : BoostKind::kNearLinear,
        opt);
    in_set = std::move(r.in_set);
  } else if (algo == "exact") {
    VcSolverOptions opt;
    opt.time_limit_seconds = budget;
    VcSolverResult r = SolveExactMis(g, opt);
    certificate = r.proven_optimal ? "proven optimal" : "time limit hit";
    in_set = std::move(r.in_set);
  } else {
    return Usage();
  }
  const double seconds = timer.Seconds();

  std::string why;
  if (!VerifyMis(g, in_set, &why)) {
    std::cerr << "internal error: invalid solution: " << why << "\n";
    return 1;
  }
  if (want_verify) {
    std::cerr << "verified: independent and maximal (" << g.NumVertices()
              << " vertices)\n";
  }
  uint64_t size = 0;
  for (uint8_t f : in_set) size += f;
  run.NoteSeconds(seconds);
  run.record().AddNumber("graph.vertices", static_cast<double>(g.NumVertices()));
  run.record().AddNumber("graph.edges", static_cast<double>(g.NumEdges()));
  run.record().AddNumber("solution.final_size", static_cast<double>(size));
  if (!certificate.empty()) run.record().AddString("certificate", certificate);
  run.Commit();
  if (want_cover) {
    in_set = Complement(in_set);
    size = g.NumVertices() - size;
  }
  std::cerr << algo << (want_cover ? " vertex cover" : " independent set")
            << ": " << size << " vertices in " << seconds << "s";
  if (!certificate.empty()) std::cerr << " [" << certificate << "]";
  std::cerr << "\n";
  if (want_stats) {
    if (run.record().metrics.empty()) {
      std::cerr << "(--stats: no counters for --algo=" << algo << ")\n";
    } else {
      std::cerr << obs::FormatMetrics(run.record().metrics);
    }
  }

  return EmitSolution(out_path, in_set);
}
