#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace ckp {

namespace {

thread_local bool tls_in_parallel_worker = false;

struct WorkerScope {
  WorkerScope() { tls_in_parallel_worker = true; }
  ~WorkerScope() { tls_in_parallel_worker = false; }
};

}  // namespace

bool in_parallel_worker() { return tls_in_parallel_worker; }

ThreadPool::ThreadPool(int threads) : num_threads_(threads) {
  CKP_CHECK_MSG(threads >= 1, "thread pool needs at least one thread");
  busy_seconds_.assign(static_cast<std::size_t>(threads), 0.0);
  wait_seconds_.assign(static_cast<std::size_t>(threads), 0.0);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::pair<std::int64_t, std::int64_t> ThreadPool::chunk_range(
    std::int64_t begin, std::int64_t end, int chunks, int index) {
  const std::int64_t count = end - begin;
  const std::int64_t base = count / chunks;
  const std::int64_t rem = count % chunks;
  const std::int64_t lo =
      begin + base * index + std::min<std::int64_t>(index, rem);
  const std::int64_t hi = lo + base + (index < rem ? 1 : 0);
  return {lo, hi};
}

double ThreadPool::run_chunk(ChunkRef body, std::int64_t begin,
                             std::int64_t end, int chunks, int index) {
  const auto [lo, hi] = chunk_range(begin, end, chunks, index);
  WorkerScope scope;
  const auto start = std::chrono::steady_clock::now();
  try {
    body(lo, hi, index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double ThreadPool::run_dynamic_chunks(ChunkRef body, std::int64_t begin,
                                      std::int64_t end, int chunks) {
  double busy = 0.0;
  int index;
  while ((index = next_chunk_.fetch_add(1, std::memory_order_relaxed)) <
         chunks) {
    busy += run_chunk(body, begin, end, chunks, index);
  }
  return busy;
}

void ThreadPool::worker_main(int my_index) {
  std::uint64_t seen_generation = 0;
  while (true) {
    ChunkRef body;
    std::int64_t begin = 0, end = 0;
    int chunks = 0;
    int max_workers = 0;
    bool dynamic = false;
    double wait = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || job_generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = job_generation_;
      body = job_body_;
      begin = job_begin_;
      end = job_end_;
      chunks = job_chunks_;
      max_workers = job_workers_;
      dynamic = job_dynamic_;
      wait = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           job_post_)
                 .count();
    }
    double busy = 0.0;
    bool participated = false;
    if (dynamic) {
      if (my_index < max_workers) {
        participated = true;
        busy = run_dynamic_chunks(body, begin, end, chunks);
      }
    } else if (my_index < chunks) {
      participated = true;
      busy = run_chunk(body, begin, end, chunks, my_index);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (participated) {
        busy_seconds_[static_cast<std::size_t>(my_index)] += busy;
        wait_seconds_[static_cast<std::size_t>(my_index)] += wait;
      }
      if (--workers_pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, int chunks,
                              ChunkRef body) {
  CKP_CHECK_MSG(!in_parallel_worker(),
                "nested parallel_for: check in_parallel_worker() and run "
                "sequentially inside pool workers");
  chunks = std::clamp(chunks, 1, num_threads_);
  if (chunks == 1 || end - begin <= 0) {
    run_chunk(body, begin, end, std::max(chunks, 1), 0);
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(mu_);
      err = first_error_;
      first_error_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  const auto submit_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_body_ = body;
    job_begin_ = begin;
    job_end_ = end;
    job_chunks_ = chunks;
    job_workers_ = chunks;
    job_dynamic_ = false;
    workers_pending_ = num_threads_ - 1;
    first_error_ = nullptr;
    job_post_ = submit_time;
    ++jobs_;
    ++job_generation_;
  }
  work_cv_.notify_all();
  const double caller_busy = run_chunk(body, begin, end, chunks, 0);
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_pending_ == 0; });
    err = first_error_;
    first_error_ = nullptr;
    busy_seconds_[0] += caller_busy;
    dispatch_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      submit_time)
            .count();
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for_dynamic(std::int64_t begin, std::int64_t end,
                                      int max_workers, int chunks,
                                      ChunkRef body) {
  CKP_CHECK_MSG(!in_parallel_worker(),
                "nested parallel_for_dynamic: check in_parallel_worker() and "
                "run sequentially inside pool workers");
  max_workers = std::clamp(max_workers, 1, num_threads_);
  chunks = std::max(chunks, 1);
  if (max_workers == 1 || chunks == 1 || end - begin <= 0) {
    // Sequential fallback still visits every chunk index in ascending order
    // so per-chunk result slots fill exactly as in the pooled case.
    for (int c = 0; c < chunks; ++c) run_chunk(body, begin, end, chunks, c);
    std::exception_ptr err;
    {
      std::lock_guard<std::mutex> lock(mu_);
      err = first_error_;
      first_error_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  const auto submit_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_body_ = body;
    job_begin_ = begin;
    job_end_ = end;
    job_chunks_ = chunks;
    job_workers_ = max_workers;
    job_dynamic_ = true;
    next_chunk_.store(0, std::memory_order_relaxed);
    workers_pending_ = num_threads_ - 1;
    first_error_ = nullptr;
    job_post_ = submit_time;
    ++jobs_;
    ++job_generation_;
  }
  work_cv_.notify_all();
  const double caller_busy = run_dynamic_chunks(body, begin, end, chunks);
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_pending_ == 0; });
    err = first_error_;
    first_error_ = nullptr;
    busy_seconds_[0] += caller_busy;
    dispatch_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      submit_time)
            .count();
  }
  if (err) std::rethrow_exception(err);
}

ThreadPoolStats ThreadPool::stats() {
  ThreadPoolStats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.threads = num_threads_;
  out.jobs = jobs_;
  out.dispatch_seconds = dispatch_seconds_;
  out.busy_seconds = busy_seconds_;
  out.wait_seconds = wait_seconds_;
  return out;
}

namespace {

std::mutex g_pool_mu;
// Every pool shared_pool() ever created, the largest last. Growing appends a
// new pool and never destroys an old one: callers on other threads may still
// hold a reference to it.
std::vector<std::unique_ptr<ThreadPool>> g_pools;
int g_default_threads = 0;  // 0 = unset; fall back to env, then 1

}  // namespace

ThreadPool& shared_pool(int threads) {
  CKP_CHECK_MSG(threads >= 1, "shared_pool needs at least one thread");
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pools.empty() || g_pools.back()->num_threads() < threads) {
    g_pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  return *g_pools.back();
}

ThreadPoolStats shared_pool_stats() {
  ThreadPool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pools.empty()) pool = g_pools.back().get();
  }
  return pool != nullptr ? pool->stats() : ThreadPoolStats{};
}

int env_thread_count() {
  const char* env = std::getenv("CKP_THREADS");
  if (env == nullptr) return 0;
  char* parse_end = nullptr;
  const long value = std::strtol(env, &parse_end, 10);
  if (parse_end == nullptr || *parse_end != '\0' || value < 1) return 0;
  return static_cast<int>(value);
}

void set_default_engine_threads(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_default_threads = std::max(threads, 1);
}

int default_engine_threads() {
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (g_default_threads != 0) return g_default_threads;
  }
  const int env = env_thread_count();
  return env != 0 ? env : 1;
}

}  // namespace ckp
