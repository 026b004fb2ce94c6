#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

namespace rpmis {

size_t NumThreads() {
  if (const char* env = std::getenv("RPMIS_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return parsed > 256 ? 256 : static_cast<size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void RunParallel(size_t num_tasks, const std::function<void(size_t)>& task) {
  if (num_tasks == 0) return;
  const size_t workers = std::min(NumThreads(), num_tasks);
  if (workers <= 1) {
    for (size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }

  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(num_tasks);
  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t t = 0; t + 1 < workers; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace rpmis
