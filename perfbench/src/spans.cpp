#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int SpanLog::begin(std::string name, int parent) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<int>(threads_.size()));
  Span span;
  span.name = std::move(name);
  span.start_ns = start;
  span.end_ns = start;
  span.parent = parent;
  span.thread = it->second;
  span.run = run_;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything below `reach` is already counted
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

double self_seconds(const std::vector<Span>& spans, int id) {
  const Span& span = spans[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& s : spans) {
    if (s.parent == id) children.emplace_back(s.start_ns, s.end_ns);
  }
  return 1e-9 * double(span.end_ns - span.start_ns -
                       covered_ns(std::move(children), span.start_ns,
                                  span.end_ns));
}

double total_seconds(const std::vector<Span>& spans, const std::string& name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

int find_span(const std::vector<Span>& spans, const std::string& name) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

double busy_fraction(const std::vector<Span>& spans, const std::string& stage,
                     std::size_t threads) {
  const int id = find_span(spans, stage);
  if (id < 0 || threads == 0) return 0.0;
  const double wall = spans[static_cast<std::size_t>(id)].seconds();
  if (wall <= 0.0) return 0.0;
  double busy = 0.0;
  for (const Span& s : spans) {
    if (s.parent == id) busy += s.seconds();
  }
  return busy / (wall * double(threads));
}

std::string trace_event_json(const std::vector<std::vector<Span>>& runs) {
  std::int64_t origin = INT64_MAX;
  for (const auto& run : runs) {
    for (const Span& s : run) origin = std::min(origin, s.start_ns);
  }
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (const auto& run : runs) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      const Span& s = run[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                    "\"args\": {\"id\": %zu, \"parent\": %d}}",
                    first ? "" : ",\n", s.name.c_str(),
                    1e-3 * double(s.start_ns - origin),
                    1e-3 * double(s.end_ns - s.start_ns), s.run, s.thread, i,
                    s.parent);
      out += buf;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
