// Self-tests for the benchmark's own arithmetic (stats.hpp, span.hpp):
// the percentile and tail-sample rule, the windowed median, failed_ratio,
// self time as span minus covered child time, and queue_emit_s. run.py runs this before
// every measurement and refuses to report when it fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "span.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

perfbench::Span span(double start, double end, std::int64_t parent) {
  perfbench::Span s;
  s.name = "s";
  s.layer = "bench";
  s.start_s = start;
  s.end_s = end;
  s.parent = parent;
  s.job = 1;
  return s;
}

void test_percentiles() {
  using namespace perfbench;
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  expect(rank_percentile(xs, 0.50) == 50, "p50 of 1..100 is 50");
  expect(rank_percentile(xs, 0.95) == 95, "p95 of 1..100 is 95");
  expect(rank_percentile(xs, 1.0) == 100, "p100 is the maximum");
  expect(rank_percentile({7.0}, 0.95) == 7, "p95 of one sample is that sample");
  expect(rank_percentile({}, 0.5) == 0, "empty sample gives 0");
  expect(rank_percentile({1, 2, 3}, 0.5) == 2, "p50 of 1,2,3 is 2");
  expect(median({1, 2, 3, 4}) == 2.5, "median of 1..4 is 2.5");

  expect(tail_samples(100, 0.95) == 5, "100 samples leave 5 beyond p95");
  expect(tail_samples(199, 0.95) == 9, "199 samples leave 9 beyond p95");
  expect(tail_samples(200, 0.95) == 10, "200 samples leave 10 beyond p95");
  expect(tail_samples(0, 0.95) == 0, "no samples, no tail");
  expect(highest_supported_percentile(200) == 95,
         "200 samples support p95 with ten beyond");
  expect(highest_supported_percentile(1000) == 99,
         "1000 samples support p99 with ten beyond");
  expect(highest_supported_percentile(100) == 90,
         "100 samples support only p90");
  expect(highest_supported_percentile(15) == 0,
         "15 samples support no percentile >= 50");
}

void test_reservoir() {
  using perfbench::Reservoir;
  Reservoir small(8);
  for (int i = 0; i < 5; ++i) small.add(i);
  expect(small.count() == 5 && small.values().size() == 5,
         "below capacity every value is kept");
  Reservoir big(100);
  for (int i = 0; i < 100000; ++i) big.add(i);
  expect(big.count() == 100000 && big.values().size() == 100,
         "above capacity the count stays exact and the sample fixed");
  const double mid = perfbench::median(big.values());
  expect(mid > 30000 && mid < 70000, "the sample is spread over the stream");
}

void test_windowed_median() {
  using perfbench::WindowedMedian;
  expect(WindowedMedian(4).value() == 0, "no samples give 0");
  WindowedMedian few(1024);
  for (double x : {5.0, 1.0, 3.0}) few.add(x);
  expect(few.value() == 3, "under one window it is the plain median");
  // Two modes: 6 windows at 8, then 4 windows at 13. The whole-run median
  // is 8; the windowed one weighs each mode by its share, 0.6*8 + 0.4*13.
  WindowedMedian modes(4);
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 4; ++i) modes.add(w < 6 ? 8.0 : 13.0);
  }
  expect(near(modes.value(), 10.0), "windows of two modes average by share");
  // Window medians 2 (of 1,2,3,9) and 5 (of 5,6): (2*4 + 5*2) / 6 = 3.
  WindowedMedian partial(4);
  for (double x : {9.0, 1.0, 3.0, 2.0, 6.0, 5.0}) partial.add(x);
  expect(near(partial.value(), 3.0), "a partial last window weighs its size");
}

void test_failed_ratio() {
  using perfbench::failed_ratio;
  expect(failed_ratio(0, 0) == 0, "nothing attempted is ratio 0");
  expect(failed_ratio(1, 9) == 1.0 / 9.0, "1 of 9 failed");
  expect(failed_ratio(4, 4) == 1, "all failed");
}

void test_self_time() {
  using namespace perfbench;
  // Root [0,10] with children [1,3] and [2,6] (overlapping: 5 covered),
  // and a child [8,12] clipped to [8,10] (2 covered). Grandchild [1,2]
  // lies under the first child.
  const std::vector<Span> spans = {
      span(0, 10, -1), span(1, 3, 0), span(2, 6, 0), span(8, 12, 0),
      span(1, 2, 1)};
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 10 - 5 - 2), "root self = 10 - covered 7");
  expect(near(self[1], 2 - 1), "child self = 2 - grandchild 1");
  expect(near(self[2], 4), "leaf self is its duration");
  expect(near(self[4], 1), "grandchild self is its duration");

  // Disjoint children are summed, not merged.
  const std::vector<Span> disjoint = {span(0, 10, -1), span(1, 2, 0),
                                      span(4, 7, 0)};
  expect(near(self_times(disjoint)[0], 6), "disjoint children cover 4");
}

void test_queue_emit() {
  using perfbench::queue_emit_seconds;
  expect(near(queue_emit_seconds(0.30, 0.25), 0.05),
         "terminal latency minus record wall time");
  expect(queue_emit_seconds(0.20, 0.25) == 0,
         "a wall time beyond the latency clamps to 0");
}

}  // namespace

int main() {
  test_percentiles();
  test_windowed_median();
  test_reservoir();
  test_failed_ratio();
  test_self_time();
  test_queue_emit();
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
