// Self-tests of the benchmark's own arithmetic: digest hashing by bit
// pattern and span self-time. (Metric-name validity is checked by
// perfbench/test_perfbench.py against BENCHMARK.json.) Exits non-zero on
// the first failed check.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "digest.h"
#include "spans.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::uint64_t hash_double(double v) {
  perfbench::Fnv1a64 h;
  h.f64(v);
  return h.value();
}

xp::core::ExperimentReport one_row_report(double outcome) {
  xp::core::ExperimentReport report;
  report.scenario = "selftest";
  report.allocations = {0.5};
  report.replicates = 1;
  report.cells.resize(1);
  xp::core::Observation row;
  row.outcome = outcome;
  report.cells[0].table.add_column("m", {row});
  return report;
}

void digest_tests() {
  perfbench::Fnv1a64 empty;
  expect(empty.value() == 0xcbf29ce484222325ull, "FNV-1a offset basis");
  perfbench::Fnv1a64 a;
  a.bytes("a", 1);
  expect(a.value() == 0xaf63dc4c8601ec8cull, "FNV-1a-64 of \"a\"");

  expect(hash_double(0.0) != hash_double(-0.0), "-0.0 hashes apart from 0.0");
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  expect(hash_double(quiet) == hash_double(quiet), "same NaN, same hash");
  expect(hash_double(quiet) != hash_double(-quiet), "NaN sign bit counts");
  expect(hash_double(quiet) !=
             hash_double(std::bit_cast<double>(
                 std::bit_cast<std::uint64_t>(quiet) | 1)),
         "NaN payload counts");

  perfbench::Fnv1a64 ab_c, a_bc;
  ab_c.str("ab");
  ab_c.str("c");
  a_bc.str("a");
  a_bc.str("bc");
  expect(ab_c.value() != a_bc.value(), "strings are length-prefixed");

  using perfbench::report_digest;
  expect(report_digest(one_row_report(0.0)) ==
             report_digest(one_row_report(0.0)),
         "equal reports digest equal");
  expect(report_digest(one_row_report(0.0)) !=
             report_digest(one_row_report(-0.0)),
         "report digest sees -0.0");
  expect(report_digest(one_row_report(quiet)) ==
             report_digest(one_row_report(quiet)),
         "report digest: NaN == NaN by bit pattern");
  expect(report_digest(one_row_report(quiet)) !=
             report_digest(one_row_report(-quiet)),
         "report digest sees the NaN sign bit");
}

perfbench::Span span(const char* name, std::int64_t start, std::int64_t end,
                     int parent, int thread = 0) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.thread = thread;
  return s;
}

void span_tests() {
  using perfbench::covered_ns;
  expect(covered_ns({}, 0, 100) == 0, "no intervals cover nothing");
  expect(covered_ns({{10, 30}, {20, 50}}, 0, 100) == 40,
         "overlapping intervals count once");
  expect(covered_ns({{20, 50}, {10, 30}}, 0, 100) == 40,
         "interval order does not matter");
  expect(covered_ns({{10, 20}, {12, 15}}, 0, 100) == 10,
         "nested interval adds nothing");
  expect(covered_ns({{-10, 10}, {90, 120}}, 0, 100) == 20,
         "intervals are clipped to the parent");
  expect(covered_ns({{10, 20}, {30, 40}}, 0, 100) == 20,
         "disjoint intervals add up");

  // A root [0, 100) with children on two threads: [10, 30) and [20, 50)
  // overlap (parallel), [90, 120) overruns the root; a grandchild must not
  // count against the root.
  const std::vector<perfbench::Span> spans = {
      span("root", 0, 100, -1),       span("a", 10, 30, 0, 0),
      span("b", 20, 50, 0, 1),        span("c", 90, 120, 0, 0),
      span("a.child", 12, 28, 1, 0),
  };
  expect(std::fabs(perfbench::self_seconds(spans, 0) - 50e-9) < 1e-15,
         "root self time = 100 - |[10,50) u [90,100)|");
  expect(std::fabs(perfbench::self_seconds(spans, 1) - 4e-9) < 1e-15,
         "child self time subtracts its own child");
  expect(std::fabs(perfbench::total_seconds(spans, "a") - 20e-9) < 1e-15,
         "total_seconds sums one name");
  // Direct children of root: 20 + 30 + 30 ns over 100 ns x 2 threads.
  expect(std::fabs(perfbench::busy_fraction(spans, "root", 2) - 0.4) < 1e-12,
         "busy fraction over two threads");
  expect(perfbench::busy_fraction(spans, "absent", 2) == 0.0,
         "absent stage is idle");
}

}  // namespace

int main() {
  digest_tests();
  span_tests();
  if (failures != 0) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench self-tests passed\n");
  return EXIT_SUCCESS;
}
