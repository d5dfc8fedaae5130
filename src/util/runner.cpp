#include "util/runner.h"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

namespace xp::util {

namespace {

/// One parallel_for invocation: an atomic index dispenser plus completion
/// tracking. Lives on the shared_ptr until the last participant drops it.
struct Job {
  Job(std::size_t n, const std::function<void(std::size_t)>& body,
      StopToken* stop)
      : n(n), body(body), stop(stop) {}

  const std::size_t n;
  const std::function<void(std::size_t)>& body;
  StopToken* const stop;  // optional cooperative cancellation
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};

  std::mutex mu;
  std::condition_variable all_done;
  std::exception_ptr error;  // first exception wins (under mu)

  /// Claim and run indices until the dispenser is exhausted. Once a stop
  /// is requested, remaining indices are still claimed and counted (the
  /// completion wait must reach n) but their bodies are skipped.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!(stop && stop->stop_requested())) {
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);  // pairs with the wait
        all_done.notify_all();
      }
    }
  }

  bool done() const noexcept {
    return completed.load(std::memory_order_acquire) == n;
  }
};

}  // namespace

struct Runner::Impl {
  std::mutex mu;
  std::condition_variable work_ready;
  std::deque<std::shared_ptr<Job>> jobs;
  std::vector<std::thread> workers;
  bool stopping = false;

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_ready.wait(lock, [&] { return stopping || !jobs.empty(); });
        if (stopping) return;
        job = jobs.front();
        if (job->next.load(std::memory_order_relaxed) >= job->n) {
          // Exhausted dispenser: retire the job and look again.
          jobs.pop_front();
          continue;
        }
      }
      job->drain();
    }
  }
};

Runner::Runner(std::size_t threads) : impl_(new Impl) {
  if (threads == 0) threads = default_thread_count();
  // The caller is a participant, so spawn threads - 1 workers.
  for (std::size_t t = 1; t < threads; ++t) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

Runner::~Runner() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

std::size_t Runner::thread_count() const noexcept {
  return impl_->workers.size() + 1;
}

void Runner::parallel_for(std::size_t n,
                          const std::function<void(std::size_t)>& body,
                          StopToken* stop) {
  if (n == 0) return;
  if (impl_->workers.empty() || n == 1) {
    // Same exception/stop contract as the threaded path: every index runs
    // unless a stop was requested first, the first exception is rethrown
    // after the loop.
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      if (stop && stop->stop_requested()) break;
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  auto job = std::make_shared<Job>(n, body, stop);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->jobs.push_back(job);
  }
  impl_->work_ready.notify_all();

  // Participate: the caller drains its own job, so a nested parallel_for
  // can always make progress even when every worker is busy elsewhere.
  job->drain();

  if (!job->done()) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->all_done.wait(lock, [&] { return job->done(); });
  }

  {
    // Retire the job eagerly so workers don't spin on an empty dispenser.
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto it = impl_->jobs.begin(); it != impl_->jobs.end(); ++it) {
      if (*it == job) {
        impl_->jobs.erase(it);
        break;
      }
    }
  }

  if (job->error) std::rethrow_exception(job->error);
}

std::size_t default_thread_count() {
  if (const char* env = std::getenv("XP_THREADS")) {
    const std::string_view token(env);
    std::size_t parsed = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), parsed);
    if (ec != std::errc{} || end != token.data() + token.size() ||
        parsed == 0) {
      throw std::invalid_argument("XP_THREADS: expected a positive integer, "
                                  "got \"" + std::string(token) + "\"");
    }
    return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Runner& global_runner() {
  static Runner runner;
  return runner;
}

}  // namespace xp::util
