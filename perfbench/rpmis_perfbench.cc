// End-to-end benchmark driver for the rpmis library (see README.md).
//
// One process runs one workload for one seed. Set-up generates the
// workload's graph from the seed, writes it as an edge list plus a `.rpmi`
// sidecar, and draws an update stream; set-up is repeated and timed as
// `setup_s`. The timed phase then calls the library's public entry points
// one after another (closed loop, one caller): ingest, the three
// Reducing-Peeling solvers, and the dynamic engine fed one update at a
// time. Every output is checked; a failed check is counted, never fatal.
//
//   --trace 0  end-to-end metrics: medians over repeated calls, tracing off.
//   --trace 1  per-layer metrics: one untraced pass, one traced pass (spans
//              around every call, written to --trace-file at exit), plus
//              the single-layer variants (T=1, no compaction, standalone
//              prepasses, per-component runner).
//
// The last stdout line is {"attempted":..,"failed":..,"metrics":{..}}; the
// line before it is the host and build envelope.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchkit/obs_session.h"
#include "benchkit/run.h"
#include "dynamic/engine.h"
#include "dynamic/update.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "mis/bdone.h"
#include "mis/linear_time.h"
#include "mis/lp_reduction.h"
#include "mis/near_linear.h"
#include "mis/verify.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "support/parallel.h"
#include "support/timer.h"

namespace {

using namespace rpmis;

struct Workload {
  const char* name;
  Vertex n;
  double beta;
  double avg_degree;
  size_t updates;
};

// README.md records why each workload exists and what it stresses. Update
// throughput is set by rare expensive updates (full re-solves, adjacency
// array growth), so every stream is long enough to hold many of them.
constexpr Workload kWorkloads[] = {
    {"plr-reducible", 300'000, 2.1, 20.0, 10'000},
    {"plr-peel", 150'000, 3.5, 20.0, 10'000},
    {"dyn-stream", 200'000, 3.5, 10.0, 20'000},
};

// --quick shrinks every workload so a run takes seconds but still emits
// every metric and makes every check.
constexpr Vertex kQuickVertexDivisor = 4;
constexpr size_t kQuickUpdateDivisor = 20;

// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;
// Samples of each timed call per run, at least.
constexpr int kMinSamples = 3;
// Compaction on/off pairs per solver in the --trace 1 run.
constexpr int kCompactionPairs = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool inject_wrong_selector = false;
  std::string work_dir = ".";
  std::string trace_file;
};

// ---- bookkeeping -----------------------------------------------------

// Counts every call into the library (`attempted`) and every failed check
// or exception (`failed`), and remembers the thread counts each call saw.
class Ledger {
 public:
  void Call(const std::string& what) {
    ++attempted_;
    threads_[what].insert(NumThreads());
  }
  void CallQuiet() { ++attempted_; }  // per-update calls: no thread record

  bool Check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
    return ok;
  }

  void Threw(const std::string& what, const std::exception& e) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s threw: %s\n", what.c_str(), e.what());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, std::set<size_t>>& threads() const { return threads_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::set<size_t>> threads_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Pins RPMIS_THREADS for one scope; the library re-reads it on every call.
class ThreadsOverride {
 public:
  explicit ThreadsOverride(size_t threads) {
    if (const char* old = std::getenv("RPMIS_THREADS")) saved_ = old;
    setenv("RPMIS_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ThreadsOverride() {
    if (saved_) {
      setenv("RPMIS_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("RPMIS_THREADS");
    }
  }
  ThreadsOverride(const ThreadsOverride&) = delete;
  ThreadsOverride& operator=(const ThreadsOverride&) = delete;

 private:
  std::optional<std::string> saved_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mib(uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

// ---- host facts ----------------------------------------------------------

size_t HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t LlcBytes() {
  for (int index = 4; index >= 0; --index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char suffix = text.back();
    if (suffix == 'K') value <<= 10;
    if (suffix == 'M') value <<= 20;
    return value;
  }
  const long size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return size > 0 ? static_cast<uint64_t>(size) : 0;
}

// Resets the kernel's peak-RSS mark so VmHWM covers only what follows.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  return static_cast<bool>(out << "5" << std::flush);
}

// ---- inputs ----------------------------------------------------------

// The edge-list reader numbers vertices in order of first appearance and
// drops isolated ones; this builds the graph a text round trip of `g`
// must produce.
Graph AsReadFromText(const Graph& g) {
  std::vector<Vertex> id(g.NumVertices(), kInvalidVertex);
  std::vector<Edge> edges;
  edges.reserve(g.NumEdges());
  Vertex next = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (Vertex w : g.Neighbors(v)) {
      if (w < v) continue;
      if (id[v] == kInvalidVertex) id[v] = next++;
      if (id[w] == kInvalidVertex) id[w] = next++;
      edges.emplace_back(id[v], id[w]);
    }
  }
  return Graph::FromEdges(next, edges);
}

bool SameGraph(const Graph& a, const Graph& b) {
  return std::ranges::equal(a.RawOffsets(), b.RawOffsets()) &&
         std::ranges::equal(a.RawNeighbors(), b.RawNeighbors());
}

struct Inputs {
  std::string text_path;
  Graph expected;  // the graph both loads must return
  std::vector<GraphUpdate> updates;
  uint64_t text_bytes = 0;
  uint64_t rpmi_bytes = 0;
};

struct SetupTimes {
  double total = 0, generate = 0, write_text = 0, write_rpmi = 0;
};

// Times only the library calls; the reference graph for the load checks is
// the benchmark's own work and stays outside `total`.
SetupTimes Setup(const Workload& w, uint64_t seed, Inputs* in) {
  SetupTimes t;
  Timer step;
  const Graph generated = ChungLuPowerLaw(w.n, w.beta, w.avg_degree, seed);
  t.generate = step.Seconds();
  step.Restart();
  WriteEdgeListFile(generated, in->text_path);
  t.write_text = step.Seconds();
  in->expected = AsReadFromText(generated);
  step.Restart();
  // Written after the text file, so LoadGraphFile finds it fresh.
  WriteBinaryFile(in->expected, GraphCachePath(in->text_path));
  t.write_rpmi = step.Seconds();
  step.Restart();
  in->updates = RandomUpdateStream(in->expected, w.updates, seed);
  t.total = t.generate + t.write_text + t.write_rpmi + step.Seconds();
  in->text_bytes = std::filesystem::file_size(in->text_path);
  in->rpmi_bytes = std::filesystem::file_size(GraphCachePath(in->text_path));
  return t;
}

// ---- the timed calls ------------------------------------------------

// The timed calls of one pass, in pass order. `kDynStream` is one engine
// constructor plus the whole update stream; `kDynInit` is the constructor
// alone, sampled more often than the long streams allow.
enum Call {
  kLoadText,
  kLoadRpmi,
  kBDOne,
  kLinearTime,
  kNearLinear,
  kDynInit,
  kDynStream,
  kNumCalls
};

struct SolverRun {
  MisSolution sol;
  double seconds = 0;
};

struct PassResult {
  double load_text_s = 0, load_rpmi_s = 0;
  SolverRun bdone, lineartime, nearlinear;
  double dyn_init_s = 0;
  double dyn_apply_s = 0;
  std::vector<double> latency_us;
  std::map<UpdateKind, std::vector<double>> latency_by_kind_us;
  std::vector<double> resolve_ms;
  DynamicStats dyn_stats;
  double dyn_quality = 0;
  double call_seconds = 0;  // sum of all timed calls: the traced-run base
};

// Selectors of the first call of each solver; later calls and variants must
// match them. The first update stream fully audits the dynamic engine's
// final set; later streams must reproduce it exactly, so they skip the audit.
struct References {
  std::vector<uint8_t> bdone, lineartime, nearlinear, dynamic;
  double dyn_quality = 0;
};

class Bench {
 public:
  Bench(const Workload& w, const Args& args)
      : w_(w), args_(args), nproc_(HostCpus()) {}

  int Run();

 private:
  template <class F>
  double TimedCall(const char* span, F&& f) {
    ledger_.Call(span);
    Timer t;
    {
      obs::TraceSpan s(obs::Trace(), span);
      f();
    }
    return t.Seconds();
  }

  void CheckSolution(const char* algo, const Graph& g, MisSolution& sol,
                     std::vector<uint8_t>* reference);
  // Makes `call` once, with its checks, and records it in *r.
  void Step(Call call, PassResult* r);
  void Load(Call call, PassResult* r);
  void Solve(const char* span, const char* algo, SolverRun* run,
             std::vector<uint8_t>* reference,
             const std::function<MisSolution(const Graph&)>& fn);
  void DynamicPass(PassResult* r);
  void CheckBounds(const SolverRun& bdone, const SolverRun& lineartime,
                   const SolverRun& nearlinear);
  // A --trace 1 pass makes every call but `kDynInit` once, in order.
  PassResult Pass() {
    PassResult r;
    for (int c = 0; c < kNumCalls; ++c) {
      if (c != kDynInit) Step(static_cast<Call>(c), &r);
    }
    CheckBounds(r.bdone, r.lineartime, r.nearlinear);
    r.call_seconds = r.load_text_s + r.load_rpmi_s + r.bdone.seconds +
                     r.lineartime.seconds + r.nearlinear.seconds + r.dyn_init_s +
                     r.dyn_apply_s;
    return r;
  }
  void Variants(const PassResult& base, std::vector<Metric>* out);
  void EndToEnd(const std::array<std::vector<PassResult>, kNumCalls>& samples,
                double setup_s, double peak_rss_mib, std::vector<Metric>* out) const;
  void PerLayer(const PassResult& pass, const SetupTimes& setup,
                double traced_call_seconds, std::vector<Metric>* out) const;
  void PrintEnvelope() const;

  const Workload& w_;
  const Args& args_;
  const size_t nproc_;
  Ledger ledger_;
  Inputs inputs_;
  Graph loaded_;                  // the last sidecar load
  const Graph* solver_input_ = &inputs_.expected;  // &loaded_ once a load succeeds
  References refs_;
  bool injected_ = false;
};

void Bench::CheckSolution(const char* algo, const Graph& g, MisSolution& sol,
                          std::vector<uint8_t>* reference) {
  if (args_.inject_wrong_selector && !injected_) {
    // Test hook: corrupt one selector so the gate must notice.
    injected_ = true;
    auto it = std::find(sol.in_set.begin(), sol.in_set.end(), 0);
    if (it != sol.in_set.end()) *it = 1;
  }
  std::string why;
  ledger_.Check(VerifyMis(g, sol.in_set, &why), std::string(algo) + " VerifyMis: " + why);
  if (reference == nullptr) return;
  if (reference->empty()) {
    *reference = sol.in_set;
  } else {
    ledger_.Check(*reference == sol.in_set,
                  std::string(algo) + " selector differs from its first call");
  }
}

void Bench::Step(Call call, PassResult* r) {
  switch (call) {
    case kLoadText:
    case kLoadRpmi:
      Load(call, r);
      break;
    case kBDOne:
      Solve("bench.bdone", "bdone", &r->bdone, &refs_.bdone,
            [](const Graph& g) { return RunBDOne(g); });
      break;
    case kLinearTime:
      Solve("bench.lineartime", "lineartime", &r->lineartime, &refs_.lineartime,
            [](const Graph& g) { return RunLinearTime(g); });
      break;
    case kNearLinear:
      Solve("bench.nearlinear", "nearlinear", &r->nearlinear, &refs_.nearlinear,
            [](const Graph& g) { return RunNearLinear(g); });
      break;
    case kDynInit:
      try {
        std::optional<DynamicMisEngine> engine;
        r->dyn_init_s =
            TimedCall("bench.dyn.init", [&] { engine.emplace(inputs_.expected); });
      } catch (const std::exception& e) {
        ledger_.Threw("DynamicMisEngine", e);
      }
      break;
    case kDynStream:
      DynamicPass(r);
      break;
    case kNumCalls:
      break;
  }
}

void Bench::Load(Call call, PassResult* r) {
  const std::string& path = inputs_.text_path;
  try {
    Graph g;
    if (call == kLoadText) {
      r->load_text_s = TimedCall("bench.load_text", [&] {
        g = LoadGraphFile(path, LoadOptions{.use_cache = false});
      });
      ledger_.Check(SameGraph(g, inputs_.expected),
                    "text-loaded graph differs from the generated graph");
      return;
    }
    const auto sidecar_time = std::filesystem::last_write_time(GraphCachePath(path));
    r->load_rpmi_s = TimedCall("bench.load_rpmi", [&] { g = LoadGraphFile(path); });
    const bool same = SameGraph(g, inputs_.expected);
    ledger_.Check(same, "sidecar-loaded graph differs from the generated graph");
    ledger_.Check(std::filesystem::last_write_time(GraphCachePath(path)) == sidecar_time,
                  "the sidecar was rebuilt instead of loaded");
    if (same) {
      loaded_ = std::move(g);
      solver_input_ = &loaded_;
    }
  } catch (const std::exception& e) {
    ledger_.Threw("ingest", e);
  }
}

void Bench::Solve(const char* span, const char* algo, SolverRun* run,
                  std::vector<uint8_t>* reference,
                  const std::function<MisSolution(const Graph&)>& fn) {
  try {
    const Graph& g = *solver_input_;
    run->seconds = TimedCall(span, [&] { run->sol = fn(g); });
    obs::TraceSpan s(obs::Trace(), "bench.check");
    CheckSolution(algo, g, run->sol, reference);
    // --trace 0 keeps every sample; dropping the checked selector keeps
    // peak RSS independent of the sample count.
    if (!args_.trace) std::vector<uint8_t>().swap(run->sol.in_set);
  } catch (const std::exception& e) {
    ledger_.Threw(algo, e);
  }
}

// Theorem 6.1: every solver's |I| + |R| bounds alpha(G) from above, so no
// solver's set may exceed any solver's bound. A set certified maximum (R
// empty) is then at least as large as the others.
void Bench::CheckBounds(const SolverRun& bdone, const SolverRun& lineartime,
                        const SolverRun& nearlinear) {
  const SolverRun* runs[] = {&bdone, &lineartime, &nearlinear};
  for (const SolverRun* a : runs) {
    for (const SolverRun* b : runs) {
      ledger_.Check(a->sol.size <= b->sol.UpperBound(),
                    "a solver's set exceeds another solver's upper bound");
    }
  }
}

// The engine starts from the generated graph; both loads were checked to
// return exactly that graph.
void Bench::DynamicPass(PassResult* r) {
  try {
    std::optional<DynamicMisEngine> engine;
    r->dyn_init_s = TimedCall("bench.dyn.init", [&] { engine.emplace(inputs_.expected); });
    r->latency_us.reserve(inputs_.updates.size());
    for (const GraphUpdate& u : inputs_.updates) {
      ledger_.CallQuiet();
      UpdateOutcome outcome;
      const auto start = std::chrono::steady_clock::now();
      try {
        obs::TraceSpan s(obs::Trace(), "bench.dyn.apply");
        outcome = engine->Apply(u);
      } catch (const std::exception& e) {
        ledger_.Threw("DynamicMisEngine::Apply", e);
      }
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      r->dyn_apply_s += us * 1e-6;
      r->latency_us.push_back(us);
      r->latency_by_kind_us[u.kind].push_back(us);
      if (outcome.full_resolve) r->resolve_ms.push_back(us * 1e-3);
    }
    r->dyn_stats = engine->stats();

    obs::TraceSpan s(obs::Trace(), "bench.check");
    if (!refs_.dynamic.empty()) {
      ledger_.Check(engine->Selector() == refs_.dynamic,
                    "dynamic final set differs from the first stream");
      r->dyn_quality = refs_.dyn_quality;
      return;
    }
    refs_.dynamic = engine->Selector();
    std::string why;
    ledger_.Check(engine->CheckInvariants(&why), "dynamic invariants: " + why);
    std::vector<Vertex> alive;
    for (Vertex v = 0; v < engine->NumVertices(); ++v) {
      if (engine->Exists(v)) alive.push_back(v);
    }
    const Graph final_graph = engine->CurrentGraph().InducedSubgraph(alive);
    std::vector<uint8_t> selector(alive.size());
    for (size_t i = 0; i < alive.size(); ++i) selector[i] = engine->InSet(alive[i]);
    ledger_.Check(VerifyMis(final_graph, selector, &why),
                  "dynamic final set VerifyMis: " + why);
    const MisSolution scratch = RunLinearTime(final_graph);
    r->dyn_quality = scratch.size == 0 ? 1.0
                                       : static_cast<double>(engine->Size()) /
                                             static_cast<double>(scratch.size);
    refs_.dyn_quality = r->dyn_quality;
    ledger_.Check(r->dyn_quality >= 0.99,
                  "dynamic quality " + std::to_string(r->dyn_quality) + " < 0.99");
  } catch (const std::exception& e) {
    ledger_.Threw("dynamic", e);
  }
}

// The single-layer variants behind the per-layer metrics. Each also checks
// that the variant returns byte-for-byte what the default call returned.
void Bench::Variants(const PassResult& base, std::vector<Metric>* out) {
  const Graph& g = inputs_.expected;
  const auto add = [&](std::string name, double value, const char* unit) {
    out->push_back({std::move(name), value, unit});
  };
  {
    ThreadsOverride t1(1);
    Graph loaded;
    add("graph.load_text_s.t1", TimedCall("bench.load_text", [&] {
          loaded = LoadGraphFile(inputs_.text_path, LoadOptions{.use_cache = false});
        }),
        "s");
    ledger_.Check(SameGraph(loaded, inputs_.expected), "T=1 text load differs");
  }

  // Standalone one-pass dominance at T=nproc and T=1.
  struct Dominance {
    std::vector<uint8_t> alive, in_set;
    uint64_t removed = 0;
    double seconds = 0;
  };
  const auto dominance = [&](size_t threads) {
    ThreadsOverride pin(threads);
    Dominance d;
    d.alive.assign(g.NumVertices(), 1);
    d.in_set.assign(g.NumVertices(), 0);
    std::vector<uint32_t> deg(g.NumVertices());
    for (Vertex v = 0; v < g.NumVertices(); ++v) deg[v] = g.Degree(v);
    d.seconds = TimedCall("bench.dominance",
                          [&] { d.removed = OnePassDominance(g, d.alive, deg, d.in_set); });
    return d;
  };
  const Dominance dom = dominance(nproc_);
  const Dominance dom1 = dominance(1);
  ledger_.Check(dom.alive == dom1.alive && dom.in_set == dom1.in_set,
                "OnePassDominance differs between T=1 and T=nproc");
  add("mis.dominance_s", dom.seconds, "s");
  add("mis.dominance_s.t1", dom1.seconds, "s");
  add("mis.dominance_removed", static_cast<double>(dom.removed), "count");

  // Standalone LP (Nemhauser-Trotter) reduction.
  const auto lp = [&](size_t threads, LpReduction* result) {
    ThreadsOverride pin(threads);
    return TimedCall("bench.lp", [&] { *result = SolveLpReduction(g); });
  };
  LpReduction lp_n, lp_1;
  const double lp_s = lp(nproc_, &lp_n);
  const double lp_s1 = lp(1, &lp_1);
  ledger_.Check(lp_n.include == lp_1.include && lp_n.exclude == lp_1.exclude,
                "LP reduction differs between T=1 and T=nproc");
  const uint64_t lp_fixed = lp_n.num_include + lp_n.num_exclude;
  add("mis.lp_s", lp_s, "s");
  add("mis.lp_s.t1", lp_s1, "s");
  add("mis.lp_fixed", static_cast<double>(lp_fixed), "count");
  add("mis.lp_fixed_ratio",
      g.NumVertices() == 0 ? 0.0 : static_cast<double>(lp_fixed) / g.NumVertices(),
      "ratio");

  {
    NearLinearOptions opts;
    opts.one_pass_dominance = false;
    opts.lp_reduction = false;
    MisSolution sol;
    const double s = TimedCall("bench.nearlinear",
                               [&] { sol = RunNearLinear(g, nullptr, opts); });
    CheckSolution("nearlinear without prepasses", g, sol, nullptr);
    add("mis.nearlinear_noprepass_s", s, "s");
  }

  // Each solver with compaction on and off, in ABBA order so that both
  // medians see the same host conditions, and once at T=1. Every variant
  // must return the default call's selector.
  const auto variants = [&](const char* algo, const char* span, const SolverRun& run,
                            const std::function<MisSolution(bool compaction)>& fn) {
    const std::string prefix = std::string("mis.") + algo;
    std::vector<double> on_s, off_s;
    for (int k = 0; k < 2 * kCompactionPairs; ++k) {
      const bool compaction = k % 4 == 0 || k % 4 == 3;
      MisSolution sol;
      (compaction ? on_s : off_s).push_back(TimedCall(span, [&] { sol = fn(compaction); }));
      ledger_.Check(sol.in_set == run.sol.in_set,
                    std::string(algo) + " selector changes with compaction " +
                        (compaction ? "on" : "off"));
    }
    MisSolution serial;
    double serial_s = 0;
    {
      ThreadsOverride t1(1);
      serial_s = TimedCall(span, [&] { serial = fn(true); });
    }
    ledger_.Check(serial.in_set == run.sol.in_set,
                  std::string(algo) + " selector differs between T=1 and T=nproc");
    add(prefix + "_s", Median(on_s), "s");
    add(prefix + "_nocompact_s", Median(off_s), "s");
    add(prefix + "_s.t1", serial_s, "s");
    add(prefix + ".compaction_rebuilds", static_cast<double>(run.sol.compaction.compactions),
        "count");
    add(prefix + ".compaction_slots_scanned",
        static_cast<double>(run.sol.compaction.slots_scanned), "count");
    add(prefix + ".peels", static_cast<double>(run.sol.peeled), "count");
    add(prefix + ".kernel_vertices", static_cast<double>(run.sol.kernel_vertices), "count");
    add(prefix + ".residual", static_cast<double>(run.sol.residual_peeled), "count");
  };
  variants("bdone", "bench.bdone", base.bdone, [&](bool compaction) {
    BDOneOptions o;
    o.compaction.enabled = compaction;
    return RunBDOne(g, nullptr, o);
  });
  variants("lineartime", "bench.lineartime", base.lineartime, [&](bool compaction) {
    LinearTimeOptions o;
    o.compaction.enabled = compaction;
    return RunLinearTime(g, nullptr, o);
  });
  variants("nearlinear", "bench.nearlinear", base.nearlinear, [&](bool compaction) {
    NearLinearOptions o;
    o.compaction.enabled = compaction;
    return RunNearLinear(g, nullptr, o);
  });
  add("mis.nearlinear.certified", base.nearlinear.sol.provably_maximum ? 1 : 0, "count");

  const auto rule = [&](const char* algo, const char* name, uint64_t value) {
    add(std::string("mis.") + algo + ".rules." + name, static_cast<double>(value), "count");
  };
  const RuleCounters& b = base.bdone.sol.rules;
  rule("bdone", "degree_zero", b.degree_zero);
  rule("bdone", "degree_one", b.degree_one);
  const RuleCounters& l = base.lineartime.sol.rules;
  rule("lineartime", "degree_zero", l.degree_zero);
  rule("lineartime", "degree_one", l.degree_one);
  rule("lineartime", "degree_two_path", l.degree_two_path);
  const RuleCounters& nl = base.nearlinear.sol.rules;
  rule("nearlinear", "degree_zero", nl.degree_zero);
  rule("nearlinear", "degree_two_path", nl.degree_two_path);
  rule("nearlinear", "dominance", nl.dominance);
  rule("nearlinear", "one_pass_dominance", nl.one_pass_dominance);
  rule("nearlinear", "lp", nl.lp);

  // The parallel per-component runner at T=nproc and T=1.
  const auto percomp = [&](size_t threads, MisSolution* sol) {
    ThreadsOverride pin(threads);
    return TimedCall("bench.lineartime_percomp", [&] {
      *sol = RunLinearTimePerComponent(g, PerComponentOptions{.parallel = true});
    });
  };
  MisSolution pc, pc1;
  add("mis.lineartime_percomp_s", percomp(nproc_, &pc), "s");
  add("mis.lineartime_percomp_s.t1", percomp(1, &pc1), "s");
  CheckSolution("lineartime per component", g, pc, nullptr);
  ledger_.Check(pc.in_set == pc1.in_set,
                "per-component LinearTime differs between T=1 and T=nproc");
}

void Bench::EndToEnd(const std::array<std::vector<PassResult>, kNumCalls>& samples,
                     double setup_s, double peak_rss_mib, std::vector<Metric>* out) const {
  const auto median = [&](std::initializer_list<Call> calls,
                          const std::function<double(const PassResult&)>& f) {
    std::vector<double> v;
    for (Call c : calls) {
      for (const PassResult& p : samples[c]) v.push_back(f(p));
    }
    return Median(std::move(v));
  };
  const auto add = [&](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  add("setup_s", setup_s, "s");
  add("load_text_s", median({kLoadText}, [](const PassResult& p) { return p.load_text_s; }),
      "s");
  add("load_rpmi_s", median({kLoadRpmi}, [](const PassResult& p) { return p.load_rpmi_s; }),
      "s");
  add("bdone_s", median({kBDOne}, [](const PassResult& p) { return p.bdone.seconds; }), "s");
  add("lineartime_s",
      median({kLinearTime}, [](const PassResult& p) { return p.lineartime.seconds; }), "s");
  add("nearlinear_s",
      median({kNearLinear}, [](const PassResult& p) { return p.nearlinear.seconds; }), "s");
  add("bdone_size",
      median({kBDOne}, [](const PassResult& p) { return double(p.bdone.sol.size); }), "count");
  add("lineartime_size",
      median({kLinearTime}, [](const PassResult& p) { return double(p.lineartime.sol.size); }),
      "count");
  add("nearlinear_size",
      median({kNearLinear}, [](const PassResult& p) { return double(p.nearlinear.sol.size); }),
      "count");
  add("peak_rss_mb", peak_rss_mib, "MB");
  add("dyn_init_s",
      median({kDynInit, kDynStream}, [](const PassResult& p) { return p.dyn_init_s; }), "s");
  // Latency percentiles pool every Apply of every stream.
  std::vector<double> latency_us;
  for (const PassResult& p : samples[kDynStream]) {
    latency_us.insert(latency_us.end(), p.latency_us.begin(), p.latency_us.end());
  }
  add("dyn_update_p50_us", Percentile(latency_us, 0.50), "us");
  add("dyn_update_p99_us", Percentile(latency_us, 0.99), "us");
  add("dyn_updates_per_s", median({kDynStream}, [](const PassResult& p) {
        return p.dyn_apply_s > 0 ? double(p.latency_us.size()) / p.dyn_apply_s : 0.0;
      }),
      "1/s");
  add("dyn_quality", median({kDynStream}, [](const PassResult& p) { return p.dyn_quality; }),
      "ratio");
}

void Bench::PerLayer(const PassResult& p, const SetupTimes& setup,
                     double traced_call_seconds, std::vector<Metric>* out) const {
  const auto add = [&](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  add("graph.generate_s", setup.generate, "s");
  add("graph.write_text_s", setup.write_text, "s");
  add("graph.write_rpmi_s", setup.write_rpmi, "s");
  add("graph.text_mb_per_s", Mib(inputs_.text_bytes) / p.load_text_s, "MB/s");
  add("graph.rpmi_mb_per_s", Mib(inputs_.rpmi_bytes) / p.load_rpmi_s, "MB/s");

  const DynamicStats& st = p.dyn_stats;
  add("dynamic.solve_s", p.lineartime.seconds, "s");
  add("dynamic.init_over_solve",
      p.lineartime.seconds > 0 ? p.dyn_init_s / p.lineartime.seconds : 0.0, "ratio");
  const std::pair<UpdateKind, const char*> kinds[] = {
      {UpdateKind::kInsertEdge, "dynamic.apply_p50_us.ae"},
      {UpdateKind::kDeleteEdge, "dynamic.apply_p50_us.de"},
      {UpdateKind::kInsertVertex, "dynamic.apply_p50_us.av"},
      {UpdateKind::kDeleteVertex, "dynamic.apply_p50_us.dv"},
  };
  for (const auto& [kind, name] : kinds) {
    const auto it = p.latency_by_kind_us.find(kind);
    add(name, it == p.latency_by_kind_us.end() ? 0.0 : Median(it->second), "us");
  }
  double resolve_s = 0;
  for (double ms : p.resolve_ms) resolve_s += ms * 1e-3;
  add("dynamic.resolve_ms", Median(p.resolve_ms), "ms");
  add("dynamic.full_resolves", static_cast<double>(st.full_resolves), "count");
  add("dynamic.resolve_share", p.dyn_apply_s > 0 ? resolve_s / p.dyn_apply_s : 0.0,
      "ratio");
  add("dynamic.component_fallbacks", static_cast<double>(st.component_fallbacks), "count");
  add("dynamic.cone_vertices", static_cast<double>(st.cone_vertices), "count");
  add("dynamic.max_cone", static_cast<double>(st.max_cone), "count");
  add("dynamic.evictions", static_cast<double>(st.evictions), "count");
  add("obs.trace_overhead_ratio",
      p.call_seconds > 0 ? traced_call_seconds / p.call_seconds : 0.0, "ratio");
}

void Bench::PrintEnvelope() const {
#ifdef RPMIS_NO_OBS
  const bool no_obs = true;
#else
  const bool no_obs = false;
#endif
  std::string threads;
  for (const auto& [call, counts] : ledger_.threads()) {
    if (!threads.empty()) threads += ',';
    threads.append("\"").append(call).append("\":[");
    for (size_t t : counts) {
      if (threads.back() != '[') threads += ',';
      threads += std::to_string(t);
    }
    threads += ']';
  }
  std::printf(
      "{\"envelope\":{\"workload\":\"%s\",\"seed\":%llu,\"quick\":%s,\"nproc\":%zu,"
      "\"llc_bytes\":%llu,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"rpmis_no_obs\":%s,\"threads_per_call\":{%s}}}\n",
      w_.name, static_cast<unsigned long long>(args_.seed), args_.quick ? "true" : "false",
      nproc_, static_cast<unsigned long long>(LlcBytes()), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, no_obs ? "true" : "false", threads.c_str());
}

int Bench::Run() {
  setenv("RPMIS_THREADS", std::to_string(nproc_).c_str(), 1);
  ledger_.Call("build");
  ledger_.Check(std::string(PERFBENCH_BUILD_TYPE) == "Release",
                std::string("build type is ") + PERFBENCH_BUILD_TYPE + ", not Release");

  inputs_.text_path = args_.work_dir + "/" + w_.name + ".txt";
  std::vector<Metric> metrics;
  SetupTimes setup;
  std::vector<double> setup_totals;
  const int setups = args_.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    ledger_.Call("setup");
    setup = Setup(w_, args_.seed, &inputs_);
    setup_totals.push_back(setup.total);
  }

  if (!args_.trace) {
    ledger_.Check(ResetPeakRss(), "cannot reset the peak-RSS mark");
    // The calls repeat in rounds, in pass order, so that all of them sample
    // the same host conditions. A call leaves the rounds once it has
    // kMinSamples samples and has used its share of --seconds: half goes to
    // the update stream, the other half in equal parts to the other calls.
    // So the short calls get many samples, the long ones at least a few.
    std::array<std::vector<PassResult>, kNumCalls> samples;
    std::array<double, kNumCalls> spent{};
    for (bool any = true; any;) {
      any = false;
      for (int c = 0; c < kNumCalls; ++c) {
        const double share = args_.seconds / (c == kDynStream ? 2 : 2 * (kNumCalls - 1));
        if (static_cast<int>(samples[c].size()) >= kMinSamples && spent[c] >= share) continue;
        Timer call;
        Step(static_cast<Call>(c), &samples[c].emplace_back());
        spent[c] += call.Seconds();
        any = true;
      }
    }
    CheckBounds(samples[kBDOne].back().bdone, samples[kLinearTime].back().lineartime,
                samples[kNearLinear].back().nearlinear);
    const std::optional<uint64_t> peak_kb = TryPeakRssKb();
    ledger_.Check(peak_kb.has_value(), "peak RSS (VmHWM) is not readable");
    EndToEnd(samples, Median(setup_totals),
             peak_kb ? static_cast<double>(*peak_kb) / 1024.0 : 0.0, &metrics);
  } else {
    const PassResult base = Pass();
    double traced_call_seconds = 0;
    {
      std::string flag = "--trace=" + args_.trace_file;
      char name[] = "rpmis_perfbench";
      char* argv[] = {name, flag.data()};
      ObsSession session("rpmis_perfbench", 2, argv);
      traced_call_seconds = Pass().call_seconds;
    }  // the session writes the trace file here
    PerLayer(base, setup, traced_call_seconds, &metrics);
    Variants(base, &metrics);
  }

  PrintEnvelope();
  std::string out = "{\"attempted\":" + std::to_string(ledger_.attempted()) +
                    ",\"failed\":" + std::to_string(ledger_.failed()) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ',';
    out.append("\"").append(metrics[i].name).append("\":{\"value\":").append(value);
    out.append(",\"unit\":\"").append(metrics[i].unit).append("\"}");
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args->workload = value();
    } else if (flag == "--seed") {
      args->seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value());
    } else if (flag == "--trace") {
      args->trace = value() != "0";
    } else if (flag == "--trace-file") {
      args->trace_file = value();
    } else if (flag == "--work-dir") {
      args->work_dir = value();
    } else if (flag == "--quick") {
      args->quick = true;
    } else if (flag == "--inject-wrong-selector") {
      args->inject_wrong_selector = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !(args->trace && args->trace_file.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, &args)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (Workload w : kWorkloads) {
    if (args.workload != w.name) continue;
    if (args.quick) {
      w.n /= kQuickVertexDivisor;
      w.updates /= kQuickUpdateDivisor;
    }
    Bench bench(w, args);
    return bench.Run();
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
