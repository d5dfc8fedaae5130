// Deterministic parallel experiment runner.
//
// Every figure in the paper re-runs the same congested-network scenario
// dozens to hundreds of times (allocation sweeps, bootstrap replicates,
// paired-link cells, A/A weeks). The runs are embarrassingly parallel and
// each one is single-threaded by design, so the runner fans independent
// jobs across a thread pool while preserving the library's reproducibility
// contract:
//
//  - Results are written into an index-addressed output slot, never
//    appended, so output order is independent of completion order.
//  - Jobs must derive their randomness from their own index (counter-based
//    substreams via stats::mix64 / an explicit per-job seed), never from a
//    shared mutable RNG.
//
// Under those two rules a parallel run is bit-for-bit identical at any
// thread count, including 1.
//
// The calling thread participates in draining its own job, so nested
// parallel_for calls (a fleet's shards inside a pipeline cell) cannot
// deadlock and a Runner with 1 thread degrades to plain serial execution.
//
// Runners are passed, never looked up: library code fans out only on the
// runner its caller hands it. global_runner() exists for the convenience
// entry points (lab::run_experiment(spec), DataSource::run(p, seed)).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace xp::util {

/// Cooperative cancellation flag for parallel_for: any participant (a
/// body that hit a fatal error, a watchdog, the pipeline's fail_fast
/// path) calls request_stop(), and indices that have not yet *started*
/// are skipped. Indices already running always finish — nothing is
/// interrupted mid-body, so completed results are never torn.
class StopToken {
 public:
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_release);
  }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> stop_{false};
};

class Runner {
 public:
  /// `threads` counts workers INCLUDING the calling thread; 0 picks
  /// default_thread_count(). A Runner with threads == 1 spawns nothing.
  explicit Runner(std::size_t threads = 0);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Total threads that can execute jobs (workers + caller).
  std::size_t thread_count() const noexcept;

  /// Run body(0) .. body(n-1), in parallel, returning when all complete
  /// or — with a stop token — when every not-yet-started index has been
  /// skipped. The first exception thrown by any index is rethrown to the
  /// caller; without a token, remaining indices still run (the
  /// pre-existing contract), while a token lets a body cancel the
  /// remainder promptly via stop->request_stop(). Indices already running
  /// when the stop lands always finish, so their results are never torn.
  /// Safe to call from inside a body.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    StopToken* stop = nullptr);

 private:
  struct Impl;
  Impl* impl_;
};

/// Worker count used by the process-wide runner: the XP_THREADS environment
/// variable when set, else std::thread::hardware_concurrency(). XP_THREADS
/// must be a positive decimal integer, whole token; anything else throws
/// std::invalid_argument naming the variable and the token.
std::size_t default_thread_count();

/// Process-wide shared runner (lazily constructed, default_thread_count()).
Runner& global_runner();

}  // namespace xp::util
