// A small thread pool for the simulation hot paths.
//
// The LOCAL model is embarrassingly parallel *within* a round: every node
// reads only previous-round neighbor states and writes only its own next
// state, so the engine's node loop splits into contiguous index chunks with
// no synchronization beyond the round barrier. parallel_for implements
// exactly that shape — deterministic contiguous partition, chunk 0 on the
// calling thread, a barrier at the end. parallel_for_dynamic keeps the same
// deterministic partition but lets idle workers claim the next unstarted
// chunk from a shared counter, so a skewed active set (a few expensive
// chunks) no longer idles most of the pool. In both cases the partition —
// and therefore everything a chunk computes — depends only on the range
// length and the chunk count, never on timing; only the assignment of
// chunks to threads varies, which is invisible once per-chunk results are
// merged in chunk order.
//
// Nesting policy: a parallel_for body must not issue another parallel_for.
// Callers that might run inside a pool worker (the engine under a trial
// fan-out) check in_parallel_worker() and degrade to sequential, which keeps
// the outermost fan-out — the right granularity — parallel.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ckp {

// Non-owning, trivially-copyable reference to a chunk body
// (callable as body(chunk_begin, chunk_end, chunk_index)). Dispatching
// through ChunkRef instead of std::function keeps parallel_for posts
// allocation-free, which the engine's AssertNoAlloc-certified round
// loop depends on. The referenced callable must outlive the parallel_for
// call — trivially true for the stack lambdas every call site passes.
class ChunkRef {
 public:
  ChunkRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ChunkRef>>>
  ChunkRef(const F& fn)  // NOLINT(google-explicit-constructor)
      : obj_(&fn), call_(&invoke<F>) {}

  void operator()(std::int64_t begin, std::int64_t end, int chunk) const {
    call_(obj_, begin, end, chunk);
  }

 private:
  template <typename F>
  static void invoke(const void* obj, std::int64_t begin, std::int64_t end,
                     int chunk) {
    (*static_cast<const F*>(obj))(begin, end, chunk);
  }

  const void* obj_ = nullptr;
  void (*call_)(const void*, std::int64_t, std::int64_t, int) = nullptr;
};

// Cumulative utilization accounting of one pool (snapshot of counters that
// only pooled dispatches update; the inline chunks==1 path costs nothing).
// busy_seconds[i] is the time thread slot i (0 = the calling thread) spent
// inside chunk bodies; wait_seconds[i] is the queue wait of worker i — job
// posted until its chunk started (slot 0 never waits). utilization of a
// workload is Σ busy / (threads × dispatch_seconds); the busy spread across
// slots is the load skew of the static partition.
struct ThreadPoolStats {
  int threads = 0;
  std::uint64_t jobs = 0;          // pooled parallel_for dispatches
  double dispatch_seconds = 0.0;   // summed submit→barrier wall time
  std::vector<double> busy_seconds;  // size == threads
  std::vector<double> wait_seconds;  // size == threads
};

class ThreadPool {
 public:
  // Spawns `threads - 1` persistent workers (the caller is the last thread).
  // threads >= 1; a 1-thread pool runs everything inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Splits [begin, end) into `chunks` contiguous near-equal ranges (sizes
  // differ by at most one; the partition depends only on the range length
  // and `chunks`, never on timing) and runs body(chunk_begin, chunk_end,
  // chunk_index) for each, chunk 0 on the calling thread. Blocks until all
  // chunks finish. `chunks` is clamped to [1, num_threads()]. The first
  // exception thrown by any chunk is rethrown on the caller. Top-level calls
  // are serialized internally; bodies must not call parallel_for again.
  void parallel_for(std::int64_t begin, std::int64_t end, int chunks,
                    ChunkRef body);

  // Work-stealing variant: the same deterministic partition of [begin, end)
  // into `chunks` ranges, but chunks may outnumber threads and each of up to
  // `max_workers` participating threads (clamped to [1, num_threads()])
  // repeatedly claims the lowest unstarted chunk index from a shared atomic
  // counter. Every chunk index in [0, chunks) is executed exactly once; the
  // chunk→thread assignment is timing-dependent, the per-chunk ranges are
  // not, so callers that write results into per-chunk slots and merge them
  // in ascending chunk order get bit-identical output regardless of
  // scheduling. Blocks until all chunks finish; first exception rethrown;
  // same nesting rules as parallel_for.
  void parallel_for_dynamic(std::int64_t begin, std::int64_t end,
                            int max_workers, int chunks, ChunkRef body);

  // The [begin, end) range of chunk `index` under the partition above.
  static std::pair<std::int64_t, std::int64_t> chunk_range(std::int64_t begin,
                                                           std::int64_t end,
                                                           int chunks,
                                                           int index);

  // Snapshot of the cumulative busy/wait accounting. Thread-safe; callable
  // while a job is in flight (counters fold in at each job's barrier).
  ThreadPoolStats stats();

 private:
  void worker_main(int my_index);
  // Returns the wall time spent inside the chunk body.
  double run_chunk(ChunkRef body, std::int64_t begin, std::int64_t end,
                   int chunks, int index);
  // Claims chunks from next_chunk_ until exhausted; returns busy time.
  double run_dynamic_chunks(ChunkRef body, std::int64_t begin,
                            std::int64_t end, int chunks);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new job
  std::condition_variable done_cv_;   // caller waits for the barrier
  std::uint64_t job_generation_ = 0;  // bumped once per parallel_for
  ChunkRef job_body_;
  std::int64_t job_begin_ = 0;
  std::int64_t job_end_ = 0;
  int job_chunks_ = 0;
  int job_workers_ = 0;       // dynamic jobs: participating thread cap
  bool job_dynamic_ = false;  // claim chunks from next_chunk_ vs my_index
  std::atomic<int> next_chunk_{0};
  int workers_pending_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;

  // Utilization accounting, all guarded by mu_: workers fold their chunk's
  // busy/wait time in under the lock they already take at the barrier.
  std::chrono::steady_clock::time_point job_post_;
  std::uint64_t jobs_ = 0;
  double dispatch_seconds_ = 0.0;
  std::vector<double> busy_seconds_;
  std::vector<double> wait_seconds_;

  std::mutex submit_mu_;  // serializes concurrent top-level parallel_for calls
};

// True while the current thread is executing a parallel_for chunk (worker or
// caller). Used to forbid nested parallelism: inner parallel code degrades
// to sequential instead of deadlocking on the shared pool.
bool in_parallel_worker();

// Process-wide pool shared by the engine and the trial fan-out, created
// lazily and grown (never shrunk) to satisfy the largest request. Returns a
// pool with num_threads() >= threads. Grow-only: a larger request creates a
// new pool and keeps every earlier one alive, so a returned reference stays
// valid for the life of the process.
ThreadPool& shared_pool(int threads);

// stats() of the largest shared pool, or a default-constructed snapshot
// (threads == 0) when no shared pool has been created yet. Growing moves
// new work to a fresh pool, so cumulative counters restart from the largest
// request.
ThreadPoolStats shared_pool_stats();

// CKP_THREADS environment override, or 0 when unset/invalid.
int env_thread_count();

// Process default used by run_local when no explicit thread count is given:
// the last set_default_engine_threads value if any, else CKP_THREADS, else 1.
// BenchReporter calls the setter from the --threads flag, which wires the
// flag through every bench without per-bench plumbing.
void set_default_engine_threads(int threads);
int default_engine_threads();

}  // namespace ckp
