#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ckp {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 4, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PartitionIsContiguousBalancedAndDeterministic) {
  // 10 items over 4 chunks: sizes 3,3,2,2 in index order.
  const auto r0 = ThreadPool::chunk_range(0, 10, 4, 0);
  const auto r1 = ThreadPool::chunk_range(0, 10, 4, 1);
  const auto r2 = ThreadPool::chunk_range(0, 10, 4, 2);
  const auto r3 = ThreadPool::chunk_range(0, 10, 4, 3);
  EXPECT_EQ(r0, (std::pair<std::int64_t, std::int64_t>{0, 3}));
  EXPECT_EQ(r1, (std::pair<std::int64_t, std::int64_t>{3, 6}));
  EXPECT_EQ(r2, (std::pair<std::int64_t, std::int64_t>{6, 8}));
  EXPECT_EQ(r3, (std::pair<std::int64_t, std::int64_t>{8, 10}));
  // Nonzero begin offsets the whole partition.
  EXPECT_EQ(ThreadPool::chunk_range(100, 110, 4, 0),
            (std::pair<std::int64_t, std::int64_t>{100, 103}));
}

TEST(ThreadPool, MoreChunksThanItemsYieldsEmptyTails) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> nonempty{0};
  pool.parallel_for(0, 3, 8, [&](std::int64_t lo, std::int64_t hi, int) {
    if (lo < hi) nonempty.fetch_add(1);
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  EXPECT_EQ(nonempty.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> visited{0};
  pool.parallel_for(5, 5, 2, [&](std::int64_t lo, std::int64_t hi, int) {
    visited.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(visited.load(), 0);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 4,
                        [&](std::int64_t lo, std::int64_t, int) {
                          CKP_CHECK_MSG(lo != 0, "chunk 0 fails");
                        }),
      CheckFailure);
  // The pool survives a failed job and runs the next one.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 4, [&](std::int64_t lo, std::int64_t hi, int) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WorkerFlagVisibleInsideChunks) {
  EXPECT_FALSE(in_parallel_worker());
  ThreadPool pool(2);
  std::atomic<int> flagged{0};
  pool.parallel_for(0, 2, 2, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t i = lo; i < hi; ++i) {
      if (in_parallel_worker()) flagged.fetch_add(1);
    }
  });
  EXPECT_EQ(flagged.load(), 2);
  EXPECT_FALSE(in_parallel_worker());
}

// ---------------------------------------------------------------------------
// parallel_for_dynamic: same deterministic chunk partition as parallel_for,
// work-stealing assignment of chunks to workers.

TEST(ThreadPoolDynamic, CoversRangeExactlyOnceWithManyChunks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_dynamic(0, 1000, 4, 32,
                            [&](std::int64_t lo, std::int64_t hi, int) {
                              for (std::int64_t i = lo; i < hi; ++i) {
                                hits[static_cast<std::size_t>(i)].fetch_add(1);
                              }
                            });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolDynamic, ChunkBoundariesMatchTheStaticPartition) {
  // The item→chunk map must be chunk_range, the same pure function of
  // (range, chunks) the static scheduler uses — that is what makes the two
  // schedulers interchangeable under the engine's merge contract.
  ThreadPool pool(4);
  const int chunks = 7;
  std::vector<std::atomic<int>> owner(100);
  pool.parallel_for_dynamic(0, 100, 4, chunks,
                            [&](std::int64_t lo, std::int64_t hi, int chunk) {
                              for (std::int64_t i = lo; i < hi; ++i) {
                                owner[static_cast<std::size_t>(i)].store(chunk);
                              }
                            });
  for (int c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ThreadPool::chunk_range(0, 100, chunks, c);
    for (std::int64_t i = lo; i < hi; ++i) {
      EXPECT_EQ(owner[static_cast<std::size_t>(i)].load(), c) << "item " << i;
    }
  }
}

TEST(ThreadPoolDynamic, SkewedChunksAllComplete) {
  // One chunk carries ~100x the work of the rest; stealing must still cover
  // every chunk exactly once and return only when all are done.
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for_dynamic(
      0, 64, 4, 16, [&](std::int64_t lo, std::int64_t hi, int chunk) {
        std::int64_t acc = 0;
        const std::int64_t spin = chunk == 0 ? 400000 : 4000;
        for (std::int64_t i = 0; i < spin; ++i) acc += i ^ (i >> 3);
        total.fetch_add(acc != -1 ? hi - lo : 0);
      });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolDynamic, EmptyRangeAndSequentialFallback) {
  ThreadPool pool(2);
  std::atomic<int> visited{0};
  pool.parallel_for_dynamic(5, 5, 2, 4,
                            [&](std::int64_t lo, std::int64_t hi, int) {
                              visited.fetch_add(static_cast<int>(hi - lo));
                            });
  EXPECT_EQ(visited.load(), 0);
  // max_workers=1 degrades to the calling thread, ascending chunk order.
  std::vector<int> order;
  pool.parallel_for_dynamic(0, 8, 1, 4,
                            [&](std::int64_t, std::int64_t, int chunk) {
                              order.push_back(chunk);
                            });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPoolDynamic, ExceptionsPropagateAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_dynamic(
                   0, 100, 4, 16,
                   [&](std::int64_t, std::int64_t, int chunk) {
                     CKP_CHECK_MSG(chunk != 3, "chunk 3 fails");
                   }),
               CheckFailure);
  std::atomic<int> count{0};
  pool.parallel_for_dynamic(0, 100, 4, 16,
                            [&](std::int64_t lo, std::int64_t hi, int) {
                              count.fetch_add(static_cast<int>(hi - lo));
                            });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolDynamic, CountsAsOneJobInStats) {
  ThreadPool pool(2);
  const ThreadPoolStats before = pool.stats();
  pool.parallel_for_dynamic(0, 16, 2, 8,
                            [&](std::int64_t, std::int64_t, int) {});
  const ThreadPoolStats after = pool.stats();
  EXPECT_EQ(after.jobs, before.jobs + 1);
  EXPECT_GE(after.dispatch_seconds, before.dispatch_seconds);
}

TEST(ThreadPool, SharedPoolGrowsToLargestRequest) {
  EXPECT_GE(shared_pool(2).num_threads(), 2);
  EXPECT_GE(shared_pool(5).num_threads(), 5);
  EXPECT_GE(shared_pool(2).num_threads(), 5);  // never shrinks
}

// Regression: growing the shared pool used to destroy the pool it replaced
// while another thread still held it (a use-after-free under ASan). A pool
// handed out once must stay usable for the life of the process.
TEST(ThreadPool, SharedPoolGrowthKeepsHandedOutPoolsAlive) {
  ThreadPool& small = shared_pool(2);
  const int grown_size = small.num_threads() + 6;
  std::atomic<bool> running{false};
  std::atomic<std::int64_t> covered{0};
  std::thread grower([&] {
    while (!running.load()) std::this_thread::yield();
    EXPECT_GE(shared_pool(grown_size).num_threads(), grown_size);
  });
  for (int job = 0; job < 2; ++job) {  // the second job runs after growth
    small.parallel_for(0, 256, small.num_threads(),
                       [&](std::int64_t lo, std::int64_t hi, int) {
                         running.store(true);
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(5));
                         covered.fetch_add(hi - lo);
                       });
    if (job == 0) grower.join();
  }
  EXPECT_EQ(covered.load(), 2 * 256);
  EXPECT_GE(small.num_threads(), 2);
}

TEST(ThreadPool, DefaultEngineThreadsPrefersExplicitOverEnv) {
  ASSERT_EQ(setenv("CKP_THREADS", "3", 1), 0);
  EXPECT_EQ(env_thread_count(), 3);
  set_default_engine_threads(7);
  EXPECT_EQ(default_engine_threads(), 7);
  set_default_engine_threads(1);
  EXPECT_EQ(default_engine_threads(), 1);
  ASSERT_EQ(unsetenv("CKP_THREADS"), 0);
  EXPECT_EQ(env_thread_count(), 0);
}

TEST(ThreadPool, EnvThreadCountRejectsGarbage) {
  ASSERT_EQ(setenv("CKP_THREADS", "banana", 1), 0);
  EXPECT_EQ(env_thread_count(), 0);
  ASSERT_EQ(setenv("CKP_THREADS", "0", 1), 0);
  EXPECT_EQ(env_thread_count(), 0);
  ASSERT_EQ(setenv("CKP_THREADS", "-4", 1), 0);
  EXPECT_EQ(env_thread_count(), 0);
  ASSERT_EQ(unsetenv("CKP_THREADS"), 0);
}

}  // namespace
}  // namespace ckp
