// Coverage for support/parallel: the thread-count override and the
// RunParallel fan-out behind the chunked edge-list scan and the
// component-parallel solve runner.
#include "support/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace rpmis {
namespace {

/// Scoped RPMIS_THREADS override.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    const char* old = std::getenv("RPMIS_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value == nullptr) {
      unsetenv("RPMIS_THREADS");
    } else {
      setenv("RPMIS_THREADS", value, 1);
    }
  }
  ~ThreadsEnv() {
    if (had_) {
      setenv("RPMIS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("RPMIS_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(NumThreadsTest, RespectsEnvOverride) {
  {
    ThreadsEnv env("3");
    EXPECT_EQ(NumThreads(), 3u);
  }
  {
    ThreadsEnv env("1");
    EXPECT_EQ(NumThreads(), 1u);
  }
  {
    // Clamped to the sanity ceiling.
    ThreadsEnv env("100000");
    EXPECT_EQ(NumThreads(), 256u);
  }
  {
    // Garbage and non-positive values fall back to hardware concurrency.
    ThreadsEnv env("zero");
    EXPECT_GE(NumThreads(), 1u);
    ThreadsEnv env2("-4");
    EXPECT_GE(NumThreads(), 1u);
  }
}

TEST(RunParallelTest, RunsEveryTaskExactlyOnce) {
  ThreadsEnv env("8");
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  RunParallel(kTasks, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(RunParallelTest, PropagatesLowestIndexedException) {
  ThreadsEnv env("4");
  try {
    RunParallel(100, [&](size_t i) {
      if (i == 17 || i == 63) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 17");
  }
}

}  // namespace
}  // namespace rpmis
