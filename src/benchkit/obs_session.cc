#include "benchkit/obs_session.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace rpmis {

namespace {

constexpr uint64_t kDefaultProgressEvery = 8192;

/// "--progress" or "--progress=K" -> stride; anything else -> 0.
uint64_t ParseProgressFlag(std::string_view arg) {
  if (arg == "--progress") return kDefaultProgressEvery;
  constexpr std::string_view kPrefix = "--progress=";
  if (arg.rfind(kPrefix, 0) != 0) return 0;
  uint64_t every = 0;
  for (char c : arg.substr(kPrefix.size())) {
    if (c < '0' || c > '9') return kDefaultProgressEvery;
    every = every * 10 + static_cast<uint64_t>(c - '0');
  }
  return every == 0 ? kDefaultProgressEvery : every;
}

std::string_view FlagValue(std::string_view arg, std::string_view prefix) {
  if (arg.rfind(prefix, 0) != 0) return {};
  return arg.substr(prefix.size());
}

}  // namespace

bool IsObsFlag(std::string_view arg) {
  return arg.rfind("--trace=", 0) == 0 || arg.rfind("--metrics=", 0) == 0 ||
         arg == "--progress" || arg.rfind("--progress=", 0) == 0 ||
         arg.rfind("--records=", 0) == 0;
}

ObsSession::ObsSession(std::string bench, int argc, char** argv)
    : bench_(std::move(bench)) {
  std::string metrics_path;
  std::string records_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    args_.emplace_back(arg);
    if (const auto v = FlagValue(arg, "--trace="); !v.empty()) {
      trace_path_ = std::string(v);
    } else if (const auto m = FlagValue(arg, "--metrics="); !m.empty()) {
      metrics_path = std::string(m);
    } else if (const auto r = FlagValue(arg, "--records="); !r.empty()) {
      records_path = std::string(r);
    } else if (const uint64_t every = ParseProgressFlag(arg); every != 0) {
      progress_every_ = every;
    }
  }
  if (!trace_path_.empty()) {
    trace_ = std::make_unique<obs::TraceSink>();
    session_scope_ = std::make_unique<obs::ScopedObservability>(
        trace_.get(), nullptr, nullptr);
  }
  if (!records_path.empty()) {
    records_ = std::make_unique<RunRecordWriter>(records_path);
  }
  if (!metrics_path.empty()) {
    metrics_out_ = std::make_unique<RunRecordWriter>(metrics_path);
  }
  metrics_on_ = records_ != nullptr || metrics_out_ != nullptr;
}

ObsSession::~ObsSession() {
  if (trace_ != nullptr && !trace_->WriteFile(trace_path_)) {
    std::fprintf(stderr, "rpmis: cannot write trace file %s: %s\n",
                 trace_path_.c_str(), std::strerror(errno));
  }
}

void ObsSession::CommitRun(const RunRecord& record) {
  if (records_ != nullptr) records_->Write(record);
  if (metrics_out_ != nullptr) {
    // The metrics channel gets the same self-describing envelope but only
    // the registry snapshot — a compact stream for counter diffing.
    RunRecord trimmed;
    trimmed.bench = record.bench;
    trimmed.algorithm = record.algorithm;
    trimmed.dataset = record.dataset;
    trimmed.seed = record.seed;
    trimmed.threads = record.threads;
    trimmed.metrics = record.metrics;
    metrics_out_->Write(trimmed);
  }
}

ObsSession::Run::Run(ObsSession* session, std::string algorithm,
                     std::string dataset, uint64_t seed, bool force_progress)
    : session_(session),
      sampler_(session->progress_enabled() ? session->progress_every()
                                           : kDefaultProgressEvery),
      scoped_(session->trace(),
              session->metrics_enabled() ? &metrics_ : nullptr,
              session->progress_enabled() || force_progress ? &sampler_
                                                            : nullptr),
      record_(MakeRunRecord(session->bench_, std::move(algorithm),
                            std::move(dataset), seed)) {
  record_.args = session->args_;
  probe_.Start();
}

ObsSession::Run::~Run() { Commit(); }

void ObsSession::Run::NoteSolution(const MisSolution& sol) {
  sol.PublishMetrics(metrics_);
  record_.AddNumber("solution.size", static_cast<double>(sol.size));
  record_.AddNumber("solution.upper_bound",
                    static_cast<double>(sol.UpperBound()));
}

void ObsSession::Run::Commit() {
  if (committed_) return;
  committed_ = true;
  record_.resource = probe_.Stop();
  record_.metrics = metrics_.Snapshot();
  record_.samples = sampler_.Samples();
  if (const uint64_t dropped = sampler_.DroppedSamples(); dropped > 0) {
    record_.AddNumber("progress.dropped_samples",
                      static_cast<double>(dropped));
  }
  session_->CommitRun(record_);
}

}  // namespace rpmis
