// Resource telemetry: allocation interposition, the no-alloc guards, RSS
// sampling, pool utilization, progress heartbeats, and run provenance.
//
// The headline tests are the allocation-free *certificates*: PR 3 and PR 5
// claimed (in comments) that the packed round-elimination inner passes and
// the BfsScratch query path run allocation-free after warm-up. AssertNoAlloc
// turns each claim into a runtime check that fails the suite if a future
// change sneaks an allocation back into those hot paths.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/roundelim.hpp"
#include "graph/bfs_kernel.hpp"
#include "graph/trees.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/resource.hpp"
#include "obs/run_record.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ckp {
namespace {

// Escape hatch for pointers: storing through a volatile keeps the optimizer
// from eliding a paired new/delete ([expr.new]/10 allows dropping calls to
// replaceable allocation functions, which would bypass the counters).
void* volatile g_escape = nullptr;

TEST(AllocCounting, InterpositionIsActiveAndCounts) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  ASSERT_TRUE(alloc_counting_active());
  const AllocCounts before = thread_alloc_counts();
  auto* p = new char[1024];
  g_escape = p;
  const AllocCounts mid = thread_alloc_counts();
  delete[] p;
  const AllocCounts after = thread_alloc_counts();
  EXPECT_GE(mid.allocs, before.allocs + 1);
  EXPECT_GE(mid.bytes, before.bytes + 1024);
  EXPECT_GE(after.frees, mid.frees + 1);
}

TEST(AllocCounting, ProcessTotalsCoverThreadActivity) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  const AllocCounts before = process_alloc_counts();
  std::vector<double>(4096, 1.0);
  const AllocCounts after = process_alloc_counts();
  EXPECT_GE(after.allocs, before.allocs + 1);
  EXPECT_GE(after.bytes, before.bytes + 4096 * sizeof(double));
}

TEST(AllocScope, MeasuresVectorGrowth) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  AllocScope scope;
  {
    std::vector<int> v(1024);
    EXPECT_GE(scope.allocations(), 1u);
    EXPECT_GE(scope.bytes(), 1024 * sizeof(int));
  }
  EXPECT_GE(scope.frees(), 1u);
}

TEST(AssertNoAllocGuard, CleanScopePasses) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  AssertNoAlloc guard("arith-only");
  volatile int x = 0;
  for (int i = 0; i < 100; ++i) x = x + i;
  (void)x;
  guard.check();  // no throw
}

TEST(AssertNoAllocGuard, CheckThrowsOnAllocation) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  AssertNoAlloc guard("alloc-here");
  int* p = new int(7);
  g_escape = p;
  EXPECT_THROW(guard.check(), CheckFailure);
  delete p;
}

TEST(AssertNoAllocGuard, DestructorThrowsOnAllocation) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  EXPECT_THROW(
      {
        AssertNoAlloc guard("dtor-alloc");
        std::string s(128, 'x');
        // s is destroyed before guard (reverse declaration order), so only
        // the allocation trips the guard, not the free.
      },
      CheckFailure);
}

TEST(Rss, SamplesArePositiveAndOrdered) {
  const std::uint64_t current = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current);
}

// PR 5's claim: once the scratch has grown to the graph size, a BFS query
// performs zero heap allocations. Warm with one query, then certify the
// repeat (including the sorted read-back into a reused vector).
TEST(NoAllocCertificates, BfsScratchQueryPath) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  const Graph g = make_complete_tree(4095, 4);
  BfsScratch& scratch = bfs_scratch();
  std::vector<NodeId> ball_out;
  scratch.bind(g.num_nodes());
  scratch.bfs_from(g, 0, 4);  // warm-up: arrays grow to steady state
  scratch.sorted_touched(ball_out);
  const std::size_t warm_size = ball_out.size();

  AssertNoAlloc guard("bfs-scratch-query");
  scratch.bind(g.num_nodes());
  scratch.bfs_from(g, 0, 4);
  scratch.sorted_touched(ball_out);
  guard.check();
  EXPECT_EQ(ball_out.size(), warm_size);
  EXPECT_TRUE(scratch.reached(0));
  EXPECT_EQ(scratch.distance(0), 0);
}

// PR 3's claim: the packed kernel's inner passes reuse thread_local scratch
// and run allocation-free once warm. The seams rerun one ∀-pass / ∃-pass on
// the kernel's own buffers; counts cross-check against the public operator.
TEST(NoAllocCertificates, RoundElimInnerPasses) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  const BipartiteProblem p = sinkless_orientation_problem(4);
  const BipartiteProblem r = round_eliminate(p);

  // Warm-up passes grow every thread_local buffer to steady state.
  const std::size_t forall_warm = roundelim_detail::forall_pass_tuple_count(p);
  const std::size_t exists_warm = roundelim_detail::exists_pass_hit_count(p);
  EXPECT_EQ(forall_warm, r.active.size());
  EXPECT_EQ(exists_warm, r.passive.size());

  {
    AssertNoAlloc guard("roundelim-forall-pass");
    const std::size_t count = roundelim_detail::forall_pass_tuple_count(p);
    guard.check();
    EXPECT_EQ(count, r.active.size());
  }
  {
    AssertNoAlloc guard("roundelim-exists-pass");
    const std::size_t count = roundelim_detail::exists_pass_hit_count(p);
    guard.check();
    EXPECT_EQ(count, r.passive.size());
  }
}

TEST(PoolStats, ParallelForAccountsBusyAndWaitTime) {
  ThreadPool& pool = shared_pool(2);
  std::vector<double> sums(2, 0.0);
  pool.parallel_for(0, 1 << 18, 2, [&](std::int64_t lo, std::int64_t hi,
                                       int chunk) {
    double s = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) s += static_cast<double>(i % 7);
    sums[static_cast<std::size_t>(chunk)] = s;
  });
  const ThreadPoolStats stats = shared_pool_stats();
  EXPECT_GE(stats.threads, 2);
  EXPECT_GE(stats.jobs, 1u);
  EXPECT_GT(stats.dispatch_seconds, 0.0);
  ASSERT_EQ(stats.busy_seconds.size(), static_cast<std::size_t>(stats.threads));
  ASSERT_EQ(stats.wait_seconds.size(), static_cast<std::size_t>(stats.threads));
  double busy_total = 0.0;
  for (double s : stats.busy_seconds) busy_total += s;
  EXPECT_GT(busy_total, 0.0);
}

TEST(RecordResourceMetrics, FoldsCountersGaugesAndKernelFamily) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  MetricsRegistry registry;
  record_resource_metrics(registry);
  EXPECT_GT(registry.counter("resource.allocs"), 0.0);
  EXPECT_GT(registry.counter("resource.alloc_bytes"), 0.0);
  EXPECT_GT(registry.gauge("resource.rss_bytes"), 0.0);
  EXPECT_GE(registry.gauge("resource.peak_rss_bytes"),
            registry.gauge("resource.rss_bytes"));

  // Monotone counters use delta-to-absolute folding: a second snapshot into
  // the same registry must never shrink or double-count.
  const double first = registry.counter("resource.allocs");
  record_resource_metrics(registry);
  EXPECT_GE(registry.counter("resource.allocs"), first);
  EXPECT_LE(registry.counter("resource.allocs"),
            static_cast<double>(process_alloc_counts().allocs));
}

TEST(ProgressMeterTest, EmitsParseableHeartbeatsAndFinalEvent) {
  std::ostringstream sink;
  {
    ProgressMeter meter("unit.sweep", 8, 1e-9, &sink);
    ASSERT_TRUE(meter.enabled());
    for (int i = 0; i < 8; ++i) meter.step();
    EXPECT_EQ(meter.position(), 8u);
  }  // destructor forces the final event
  std::istringstream lines(sink.str());
  std::string line;
  std::size_t events = 0;
  bool saw_final = false;
  std::uint64_t last_done = 0;
  while (std::getline(lines, line)) {
    const JsonValue doc = json_parse(line);
    ASSERT_TRUE(doc.is_object()) << line;
    EXPECT_EQ(doc.at("progress").as_string(), "unit.sweep");
    EXPECT_EQ(doc.at("total").as_number(), 8.0);
    const auto done = static_cast<std::uint64_t>(doc.at("done").as_number());
    EXPECT_GE(done, last_done);
    last_done = done;
    EXPECT_GE(doc.at("elapsed_seconds").as_number(), 0.0);
    if (doc.find("final") != nullptr) saw_final = true;
    ++events;
  }
  EXPECT_GE(events, 2u);  // at least the first step and the final event
  EXPECT_TRUE(saw_final);
  EXPECT_EQ(last_done, 8u);
}

TEST(ProgressMeterTest, DisabledWithoutIntervalAndSilentWhenOff) {
  set_progress_interval(0.0);
  std::ostringstream sink;
  {
    ProgressMeter meter("silent", 5, kGlobalInterval, &sink);
    EXPECT_FALSE(meter.enabled());
    meter.step(5);
  }
  EXPECT_TRUE(sink.str().empty());
}

namespace {
// Injectable steady clock for the rate-limit tests: no sleeping, no flaky
// timing — the test advances time explicitly.
std::int64_t g_fake_ms = 0;
SteadyTime fake_now() {
  return SteadyTime{} + std::chrono::milliseconds(g_fake_ms);
}
}  // namespace

TEST(ProgressMeterTest, RateLimitsOnInjectedSteadyTime) {
  g_fake_ms = 0;
  std::ostringstream sink;
  ProgressMeter meter("paced", 0, /*every_seconds=*/10.0, &sink, &fake_now);
  ASSERT_TRUE(meter.enabled());

  meter.step();  // first step always announces itself
  auto count_lines = [&] {
    std::istringstream lines(sink.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) ++n;
    return n;
  };
  EXPECT_EQ(count_lines(), 1u);

  // 9.999 simulated seconds of steps: all suppressed by the interval.
  for (int i = 0; i < 9; ++i) {
    g_fake_ms += 1111;
    meter.step();
  }
  EXPECT_EQ(count_lines(), 1u);

  g_fake_ms = 10'000;  // exactly the interval boundary emits
  meter.step();
  EXPECT_EQ(count_lines(), 2u);

  meter.finish();  // final event ignores the rate limit
  EXPECT_EQ(count_lines(), 3u);
  const std::string all = sink.str();
  const std::string last = all.substr(all.rfind('\n', all.size() - 2) + 1);
  const JsonValue doc = json_parse(last);
  EXPECT_DOUBLE_EQ(doc.at("elapsed_seconds").as_number(), 10.0);
  EXPECT_NE(doc.find("final"), nullptr);
}

TEST(ProgressObserverTest, RateLimitsOnInjectedSteadyTime) {
  g_fake_ms = 0;
  std::ostringstream sink;
  ProgressObserver obs("paced.run", /*every_seconds=*/5.0, &sink, nullptr,
                       &fake_now);
  RoundStats stats;
  stats.n = 10;
  auto emitted = [&] {
    std::istringstream lines(sink.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) ++n;
    return n;
  };
  for (int round = 1; round <= 4; ++round) {
    stats.round = round;
    obs.on_round_end(stats);  // t=0: only the elapsed>=every rounds emit
    g_fake_ms += 2000;
  }
  // Rounds land at t=0,2,4,6s; the 5s interval admits t>=5 only. The first
  // event fires once elapsed reaches `every` (t=6s, round 4).
  EXPECT_EQ(emitted(), 1u);
  const JsonValue doc = json_parse(sink.str().substr(0, sink.str().find('\n')));
  EXPECT_EQ(doc.at("round").as_number(), 4.0);
}

TEST(ProgressMeterTest, InheritsGlobalInterval) {
  set_progress_interval(1e-9);
  std::ostringstream sink;
  {
    ProgressMeter meter("global", 2, kGlobalInterval, &sink);
    EXPECT_TRUE(meter.enabled());
    meter.step();
    meter.step();
  }
  set_progress_interval(0.0);
  EXPECT_FALSE(sink.str().empty());
}

TEST(ProgressObserverTest, EmitsRoundHeartbeatsWithBudget) {
  std::ostringstream sink;
  ProgressObserver obs("unit.run", 1e-9, &sink);
  RoundStats stats;
  stats.round = 3;
  stats.max_rounds = 10;
  stats.n = 100;
  stats.halted_total = 25;
  obs.on_round_end(stats);
  RunStats run;
  run.rounds = 10;
  run.all_halted = true;
  obs.on_run_end(run);

  std::istringstream lines(sink.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue round_event = json_parse(line);
  EXPECT_EQ(round_event.at("progress").as_string(), "unit.run");
  EXPECT_EQ(round_event.at("round").as_number(), 3.0);
  EXPECT_EQ(round_event.at("max_rounds").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(round_event.at("halted_fraction").as_number(), 0.25);
  ASSERT_TRUE(std::getline(lines, line));
  const JsonValue final_event = json_parse(line);
  EXPECT_NE(final_event.find("final"), nullptr);
}

TEST(ProgressObserverTest, ForwardsToChainedObserver) {
  MetricsRegistry registry;
  MetricsObserver metrics(&registry);
  ProgressObserver obs("chain", /*every_seconds=*/0.0, nullptr, &metrics);
  EXPECT_FALSE(obs.enabled());
  RoundStats stats;
  stats.round = 1;
  stats.n = 10;
  stats.active_nodes = 10;
  obs.on_round_end(stats);
  EXPECT_EQ(registry.counter("engine.rounds"), 1.0);
}

TEST(Provenance, CollectedFieldsAreNonEmpty) {
  const RunProvenance p = collect_provenance();
  EXPECT_FALSE(p.empty());
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.timestamp.empty());
  EXPECT_FALSE(p.host.empty());
  // The repo this test builds from is a git checkout, so HEAD must resolve
  // to a real 40-hex sha, not the "unknown" fallback.
  EXPECT_EQ(p.git_sha.size(), 40u) << p.git_sha;
  // ISO-8601 UTC shape: YYYY-MM-DDTHH:MM:SSZ.
  ASSERT_EQ(p.timestamp.size(), 20u) << p.timestamp;
  EXPECT_EQ(p.timestamp[10], 'T');
  EXPECT_EQ(p.timestamp.back(), 'Z');
}

TEST(Provenance, RoundTripsThroughJson) {
  RunRecord rec;
  rec.bench = "unit";
  rec.algorithm = "prov";
  rec.n = 4;
  rec.rounds = 1;
  rec.provenance.git_sha = "abc123";
  rec.provenance.timestamp = "2026-08-09T00:00:00Z";
  rec.provenance.host = "unit-host";
  rec.provenance.build_flags = "RelWithDebInfo -O2";
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  const RunRecord back = RunRecord::from_json_line(json);
  EXPECT_EQ(back.provenance.git_sha, "abc123");
  EXPECT_EQ(back.provenance.timestamp, "2026-08-09T00:00:00Z");
  EXPECT_EQ(back.provenance.host, "unit-host");
  EXPECT_EQ(back.provenance.build_flags, "RelWithDebInfo -O2");
  EXPECT_EQ(back.to_json(), json);  // verbatim re-emission
}

TEST(Provenance, AbsentByDefaultKeepsJsonStable) {
  RunRecord rec;
  rec.bench = "unit";
  rec.algorithm = "plain";
  rec.n = 4;
  rec.rounds = 1;
  EXPECT_TRUE(rec.provenance.empty());
  EXPECT_EQ(rec.to_json().find("provenance"), std::string::npos);
}

}  // namespace
}  // namespace ckp
