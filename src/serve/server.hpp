// The long-running simulation job server.
//
// JobServer turns the repo's run-one-algorithm machinery into a service:
// requests arrive as single-line JSON (from a stdin pipe or the Unix socket
// in tools/ckp_serve.cpp), are validated and admitted into a bounded queue
// on the transport thread, and `workers` persistent worker threads each pop
// one job at a time and run it to its terminal response. A worker that
// finishes takes the next queued job at once, so a short job never waits
// behind a long one while a worker is idle. Responses stream back through a
// caller-supplied sink, one line per event, in completion order.
//
// Protocol (one JSON object per line; unknown fields are an error):
//
//   {"op":"run","id":"j1","algo":"luby",
//    "graph":{"family":"cycle","n":4096},"seed":7,
//    "max_rounds":100000,"params":{"palette":"4"},
//    "deadline_ms":500,"step_limit":0,"no_memo":false}
//   {"op":"cancel","id":"j1"}
//   {"op":"stats"}
//   {"op":"shutdown"}
//
// A run job gets exactly one terminal response: {"id","error",...} on
// rejection or failure, else {"id","done":true,"memo":...,"cancelled":...,
// "stop":...,"record":<RunRecord JSON>}. Admission also emits a non-
// terminal {"id","queued":true}, always ahead of the job's terminal line,
// so clients can distinguish "slow" from "dropped". cancel and stats
// answer immediately on the transport thread.
// Job ids are scoped to the client tag: two clients may both run "long",
// and a cancel reaches only the sender's own job; a client reusing an id
// that is still queued or running gets an error.
//
// op=stats returns the MetricsRegistry: counters (serve.jobs_admitted,
// serve.memo_hits, ...) and two histograms over executed jobs,
// serve.queue_wait_s (admission to worker pop) and serve.run_s (worker pop
// to terminal response). Memo hits never reach a worker and record neither.
//
// Budgets: deadline_ms (measured from *admission*, so queue wait counts
// against the job), step_limit (cumulative node-steps), and op=cancel all
// feed the job's RunBudget, which the engine checks at the round
// barrier — a stopped job ends on a consistent round boundary with
// cancelled=true in its record, never torn state. Completed verified
// un-budgeted runs are memoized through serve/memo.hpp; a memo hit is
// served at admission time, runs zero engine rounds, and re-emits the
// original RunRecord byte-identically.
//
// Threading: handle_line may be called from multiple transport threads
// (one per client connection); an internal transport mutex serializes the
// admission/response path, so per-client request order is preserved and
// cross-client requests interleave at line granularity. The workers are
// plain threads owned by the server and the only scheduling layer: nothing
// batches jobs between the queue and execute(). Every response
// carries the client tag of the request that caused it, and the sink —
// invoked under an internal mutex from transport threads and workers —
// routes each line back to that client (the single-transport Sink overload
// ignores the tag). MetricsRegistry is not thread-safe and is only touched
// under mu_.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "serve/memo.hpp"
#include "serve/registry.hpp"
#include "store/artifact_store.hpp"
#include "util/timer.hpp"

namespace ckp {

struct ServerOptions {
  // Worker threads, each running one job at a time: the max number of jobs
  // executing concurrently.
  int workers = 2;
  // Bound on admitted-but-unfinished jobs (queued plus executing);
  // admissions beyond it are rejected with an error response
  // (backpressure, not buffering).
  int queue_limit = 64;
  // Directory for the result memo; empty disables memoization.
  std::string store_dir;
  // EngineOptions::threads for each job's rounds when workers == 1 (0 =
  // engine default); with more workers, rounds stay on the job's worker.
  int engine_threads = 0;
  // Heartbeat spacing for the serve.jobs ProgressMeter; <= 0 disables.
  double heartbeat_seconds = 0.0;
  std::ostream* heartbeat_sink = nullptr;  // nullptr = stderr
  // Injected time source for deadlines, heartbeats, and wall clocks
  // (tests); nullptr = the real steady clock.
  NowFn now = nullptr;
};

class JobServer {
 public:
  // Receives each response line (no trailing newline). Called under the
  // server's sink mutex, possibly from worker threads.
  using Sink = std::function<void(const std::string& line)>;
  // Multi-client variant: `client` is the tag handle_line was called with
  // for the request this line answers — the transport routes it back to
  // that connection.
  using TaggedSink =
      std::function<void(const std::string& line, std::uint64_t client)>;

  JobServer(ServerOptions options, Sink sink);
  JobServer(ServerOptions options, TaggedSink sink);
  // Drains admitted jobs, then stops and joins the workers.
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  // Handles one request line; safe to call concurrently from multiple
  // transport threads (serialized internally). `client` tags every response
  // the line earns. Empty/blank lines are ignored. Malformed input emits an
  // error response; it never throws. Returns false when the line was a
  // shutdown request (after draining), true otherwise.
  bool handle_line(const std::string& line, std::uint64_t client = 0);

  // Blocks until every admitted job has emitted its terminal response.
  void drain();

  // Blocks until fewer than queue_limit jobs are admitted but unfinished.
  // A transport with no client to retry (pipe mode) calls it between lines,
  // so a long batch waits for room instead of earning "queue full" errors;
  // socket transports never call it and keep rejecting.
  void wait_for_room();

  // Counter snapshot for tests/tools ("serve.jobs_admitted",
  // "serve.memo_hits", "serve.engine_rounds_total", ...).
  double counter(const std::string& name) const;

 private:
  struct Job {
    std::string id;
    std::unique_ptr<Algorithm> algo;
    KV params;
    GraphSpec graph;
    std::uint64_t seed = 1;
    int max_rounds = 1 << 20;
    bool no_memo = false;
    std::unique_ptr<RunBudget> budget;  // stable address for op=cancel
    MemoFacts facts;
    std::uint64_t client = 0;  // transport tag for response routing
    SteadyTime admitted;       // start of serve.queue_wait_s
  };
  using JobKey = std::pair<std::uint64_t, std::string>;  // (client, id)

  void admit(const JsonValue& doc, std::uint64_t client);
  void cancel(const JsonValue& doc, std::uint64_t client);
  void execute(Job& job);
  void worker_loop();
  void stop_workers();  // joins the workers once they have emptied the queue
  void emit(const std::string& line, std::uint64_t client);
  std::string stats_json();

  ServerOptions opts_;
  TaggedSink sink_;
  std::optional<ArtifactStore> store_;
  ResultMemo memo_;
  ProgressMeter heartbeat_;

  mutable std::mutex mu_;  // queue, active set, metrics, lifecycle flags
  std::condition_variable queue_cv_;  // wakes idle workers
  std::condition_variable idle_cv_;   // wakes drain()
  std::deque<std::unique_ptr<Job>> queue_;
  std::map<JobKey, RunBudget*> active_;  // queued + executing jobs
  MetricsRegistry metrics_;
  int running_ = 0;  // popped by a worker, execute() not yet returned
  bool stopping_ = false;

  std::mutex transport_mu_;  // serializes concurrent handle_line callers
  std::mutex sink_mu_;       // serializes sink invocations
  std::vector<std::thread> workers_;
};

}  // namespace ckp
