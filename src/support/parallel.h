// Minimal std::thread fan-out for the library's two parallel paths: the
// chunked edge-list scan (graph/io), which beats one thread on a 4-core
// host, and the component-parallel solve runner (mis/per_component),
// which ties with it. Every other pass — the CSR build, induced-CSR
// fills, sidecar validation — is serial: a parallel CSR build lost to
// one thread, and the serial forms of the others cost at most a few
// milliseconds (EXPERIMENTS.md, "Serial vs parallel, per site").
//
// There is deliberately no persistent thread pool: RunParallel wraps
// coarse, tens-of-milliseconds tasks (scanning a megabyte chunk, solving
// a component), so the cost of spawning a handful of threads per call is
// noise, and the library stays free of global mutable state. Thread count
// comes from the RPMIS_THREADS environment variable when set, so
// benchmark runs and the thread-count equivalence tests can pin it
// without code changes.
#ifndef RPMIS_SUPPORT_PARALLEL_H_
#define RPMIS_SUPPORT_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace rpmis {

/// Worker thread count for the parallel helpers: RPMIS_THREADS when set to
/// a positive integer (clamped to [1, 256]; garbage values are ignored),
/// otherwise std::thread::hardware_concurrency() (minimum 1). Re-read on
/// every call so tests can flip the environment between invocations.
size_t NumThreads();

/// Runs task(0) .. task(num_tasks - 1) on up to NumThreads() threads
/// (including the calling thread). Tasks are claimed dynamically, so
/// uneven task sizes balance. Blocks until every task finished. If tasks
/// throw, all tasks still run to completion (or throw themselves) and the
/// exception of the lowest-indexed failing task is rethrown, making error
/// reporting deterministic regardless of scheduling.
void RunParallel(size_t num_tasks, const std::function<void(size_t)>& task);

}  // namespace rpmis

#endif  // RPMIS_SUPPORT_PARALLEL_H_
