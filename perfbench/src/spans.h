// In-memory span log for the traced run.
//
// A span is (name, start, end, parent, thread, run): the traced pipeline
// opens one around every call it makes into a library layer. Spans stay
// in memory while the run is timed and are written out (Chrome trace-event
// JSON, viewable offline in Perfetto or chrome://tracing) only when the
// benchmark ends. Parents are passed explicitly because runner jobs execute
// on other threads than the span that fanned them out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the same log; -1 for a root
  int thread = 0;   ///< small per-log thread number (0 = first seen)
  int run = 0;      ///< spec-run id: all spans of one spec run share it

  double seconds() const noexcept { return 1e-9 * double(end_ns - start_ns); }
};

/// Thread-safe append-only span log. Indices returned by begin() stay
/// valid for the log's lifetime.
class SpanLog {
 public:
  explicit SpanLog(int run) : run_(run) {}

  int begin(std::string name, int parent);
  void end(int id);

  /// Snapshot (call once every span has ended).
  std::vector<Span> spans() const;

 private:
  int run_;
  mutable std::mutex mutex_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// RAII span: begins on construction, ends on destruction (also when the
/// traced call throws).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent)
      : log_(log), id_(log.begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals,
                        std::int64_t lo, std::int64_t hi);

/// A span's duration minus the part of it its direct children cover.
/// Children running in parallel on several threads are counted once.
double self_seconds(const std::vector<Span>& spans, int id);

/// Sum of the durations of every span named `name`.
double total_seconds(const std::vector<Span>& spans, const std::string& name);

/// Index of the first span named `name`, or -1.
int find_span(const std::vector<Span>& spans, const std::string& name);

/// Σ durations of the direct children of the first span named `stage` /
/// (its duration × threads): how busy the runner's threads were while the
/// stage fanned out. 0 when the stage is absent.
double busy_fraction(const std::vector<Span>& spans, const std::string& stage,
                     std::size_t threads);

/// Chrome trace-event JSON of every span ("X" complete events; pid = run,
/// tid = thread; the parent index is kept in args).
std::string trace_event_json(const std::vector<std::vector<Span>>& runs);

}  // namespace perfbench
