#include "benchkit/run.h"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/timer.h"

namespace rpmis {

namespace {

// Reads "<key>: <value> kB" from /proc/self/status (or the
// RPMIS_PROC_STATUS_PATH override). nullopt when the file is unreadable
// or the key is missing/unparseable — callers decide whether that is a
// hard error, a logged warning, or an absent record field.
std::optional<uint64_t> TryReadStatusKb(const char* key) {
  const char* path = "/proc/self/status";
  if (const char* env = std::getenv("RPMIS_PROC_STATUS_PATH")) {
    if (env[0] != '\0') path = env;
  }
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return std::nullopt;
  char line[256];
  std::optional<uint64_t> value;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      unsigned long long parsed = 0;
      if (std::sscanf(line + key_len + 1, " %llu", &parsed) == 1) {
        value = parsed;
      }
      break;
    }
  }
  std::fclose(f);
  return value;
}

// One warning per process, not one per call: the harness measures in
// loops and a hardened container would otherwise flood stderr.
void WarnRssUnavailableOnce() {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "rpmis: /proc/self/status is unreadable or lacks VmHWM; "
                 "peak-RSS figures degrade to 0 (records mark them absent)\n");
  }
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// Fills the rusage-derived fields of `report` as deltas from `before`.
void FillRusageDelta(const rusage& before, ChildMeasurement* report) {
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  report->utime_seconds =
      TimevalSeconds(after.ru_utime) - TimevalSeconds(before.ru_utime);
  report->stime_seconds =
      TimevalSeconds(after.ru_stime) - TimevalSeconds(before.ru_stime);
  report->minor_faults =
      static_cast<uint64_t>(after.ru_minflt - before.ru_minflt);
  report->major_faults =
      static_cast<uint64_t>(after.ru_majflt - before.ru_majflt);
}

}  // namespace

std::optional<uint64_t> TryPeakRssKb() { return TryReadStatusKb("VmHWM"); }

ChildMeasurement MeasureInChild(const std::function<void(uint64_t[4])>& body) {
  ChildMeasurement out;
  // Return freed arena pages to the kernel first; otherwise the child's
  // allocations reuse already-mapped heap left over from building the
  // input graph and VmHWM never grows (the measurement floors out).
  malloc_trim(0);

  // Degraded path when fork/pipe is unavailable: measure in-process (RSS
  // delta may be polluted by the parent's history). The contract must
  // match the forked path: ok = true only for a run that completed
  // normally, and a failed run (here: body throwing — the analogue of a
  // crashed child) yields a default result, never a partially-filled
  // payload. `body` therefore writes into a local report that is only
  // surfaced on success.
  auto measure_in_process = [&]() -> ChildMeasurement {
    ChildMeasurement report;
    const std::optional<uint64_t> before = TryPeakRssKb();
    rusage ru_before{};
    getrusage(RUSAGE_SELF, &ru_before);
    Timer t;
    try {
      body(report.payload);
    } catch (...) {
      return ChildMeasurement{};
    }
    report.seconds = t.Seconds();
    FillRusageDelta(ru_before, &report);
    const std::optional<uint64_t> after = TryPeakRssKb();
    if (before.has_value() && after.has_value()) {
      report.rss_available = true;
      report.peak_rss_delta_kb = *after - *before;
    } else {
      WarnRssUnavailableOnce();
    }
    report.ok = true;
    return report;
  };

  // Test hook (and escape hatch for fork-hostile environments): force the
  // in-process fallback so its behaviour is exercisable deterministically.
  if (const char* env = std::getenv("RPMIS_MEASURE_IN_PROCESS")) {
    if (env[0] != '\0' && env[0] != '0') return measure_in_process();
  }

  int pipe_fd[2];
  if (pipe(pipe_fd) != 0) return measure_in_process();
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fd[0]);
    close(pipe_fd[1]);
    return measure_in_process();
  }
  if (pid == 0) {
    // Child: run and report the full struct (retrying interrupted or
    // short writes; the report is well under PIPE_BUF, so in practice
    // this is one atomic write).
    close(pipe_fd[0]);
    ChildMeasurement report;
    const std::optional<uint64_t> before = TryPeakRssKb();
    rusage ru_before{};
    getrusage(RUSAGE_SELF, &ru_before);
    Timer t;
    body(report.payload);
    report.seconds = t.Seconds();
    FillRusageDelta(ru_before, &report);
    const std::optional<uint64_t> after = TryPeakRssKb();
    if (before.has_value() && after.has_value()) {
      report.rss_available = true;
      report.peak_rss_delta_kb = *after - *before;
    }
    report.ok = true;
    const char* src = reinterpret_cast<const char*>(&report);
    size_t left = sizeof(report);
    while (left > 0) {
      const ssize_t written = write(pipe_fd[1], src, left);
      if (written < 0) {
        if (errno == EINTR) continue;
        break;
      }
      src += written;
      left -= static_cast<size_t>(written);
    }
    close(pipe_fd[1]);
    _exit(0);
  }

  // Parent: collect the whole report, tolerating EINTR and short reads.
  close(pipe_fd[1]);
  char* dst = reinterpret_cast<char*>(&out);
  size_t got = 0;
  while (got < sizeof(out)) {
    const ssize_t r = read(pipe_fd[0], dst + got, sizeof(out) - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;  // child died before reporting
    got += static_cast<size_t>(r);
  }
  close(pipe_fd[0]);

  // Reap unconditionally — a failed read must not leak a zombie — and
  // only trust the payload when the child also exited cleanly (a child
  // killed by a signal or exiting nonzero yields ok = false).
  int status = 0;
  pid_t reaped;
  do {
    reaped = waitpid(pid, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  const bool exited_clean =
      reaped == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (got != sizeof(out) || !exited_clean || !out.ok) {
    out = ChildMeasurement{};  // never surface a partially-filled payload
  }
  if (out.ok && !out.rss_available) WarnRssUnavailableOnce();
  return out;
}

}  // namespace rpmis
