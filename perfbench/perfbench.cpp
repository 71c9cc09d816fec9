// The repo benchmark's measuring program (run through perfbench/run.py).
//
//   perfbench --workload=W --seed=N --seconds=S --trace=0|1 --out_dir=DIR
//             [--git_sha=X --source_sha=Y --build_type=T]
//
// Workloads (BENCHMARK.json records why each exists):
//   engine_roster  one closed-loop caller, engine threads = 1, cycling the
//                  nine packed roster entries on n = 2^20 inputs built in
//                  set-up; every output checked by its lcl verifier.
//   serve_memo     one closed-loop client replaying a job set that set-up
//                  memoized; every request is a hit served in handle_line.
//
// --trace=0 prints the end-to-end metrics. --trace=1 runs the workload
// untraced for half of --seconds and traced for the other half (the
// difference is the tracing overhead), then replays a sample of the traced
// jobs through each layer's public functions one call at a time, and prints
// the per-layer metrics. Spans come only from this file, around calls into
// the program; the Chrome trace goes to DIR/trace_<workload>.json.
//
// The last stdout line is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// and the exit code is non-zero on any unexpected output: a verifier
// failure other than the known sinkless defect, a server error or refusal,
// a memo hit that is not byte-identical to the miss that stored it, or a
// memoized digest that a fresh no_memo run of the same job does not match.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "local/ids.hpp"
#include "obs/run_record.hpp"
#include "roster.hpp"
#include "serve/memo.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "span.hpp"
#include "stats.hpp"
#include "store/artifact_store.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace ckp;
using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload constants.

constexpr NodeId kRosterN = NodeId{1} << 20;
constexpr int kRosterDegree = 3;
constexpr int kTreeDelta = 16;  // smallest Δ Theorem 10's palette admits
constexpr std::uint64_t kSmallN = 4096;
constexpr int kMemoSeeds = 8;  // fixed serve_memo set: 8 entries x 8 seeds
// Each run is split into segments, each set up afresh (set-up time is the
// median over them) and measuring its share of --seconds: a serve_memo hit
// costs 12-15 us depending on the server instance and store it lands on, so
// one instance per run would make the run's figures that instance's.
// engine_roster is steady within one set-up (a segment there would only add
// whole-cycle overshoot), so it sets up three times and measures once.
constexpr int kRosterSetups = 3;
constexpr int kMemoSegments = 12;
constexpr std::size_t kTraceEventsCap = 100000;  // written to the trace file
constexpr std::size_t kSpanCapacity = 2000000;   // held in memory
// A traced serve_memo hit records 2 spans and costs microseconds, so its
// traced phase would fill the span store on a fast host. Each segment's
// traced phase therefore ends after this many hits (or its time share,
// whichever comes first), which leaves room for the replay's spans; a run
// that drops any span fails instead of reporting partial self times.
constexpr std::size_t kReplaySpanReserve = 100000;
constexpr std::uint64_t kMemoTracedJobs =
    (kSpanCapacity - kReplaySpanReserve) / (2 * kMemoSegments);

// The eight entries serve_memo sends. sinkless is measured in
// engine_roster only: its runs never verify (the known defect), so the
// server never memoizes them, and serve_memo must hit on every job.
std::vector<const RosterEntry*> served_entries() {
  std::vector<const RosterEntry*> out;
  for (const RosterEntry& e : roster()) {
    if (std::string(e.name) != "sinkless") out.push_back(&e);
  }
  return out;
}

// JSON numbers are doubles and the server rejects integers beyond 1e15, so
// request seeds stay below that.
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t salt,
                           std::uint64_t job) {
  return mix_seed(seed, salt, job) % 1000000000000000ULL + 1;
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
// not touch reports 0.
std::vector<Metric> per_layer_template() {
  std::vector<Metric> m = {
      {"graph.build_s", 0, "s"},
      {"graph.nodes_per_s", 0, "1/s"},
      {"local.setup_init_s", 0, "s"},
      {"local.rounds_s", 0, "s"},
      {"local.node_rounds_per_s", 0, "1/s"},
      {"local.rounds", 0, "count"},
      {"local.engine_bytes_per_node", 0, "B"},
  };
  for (const RosterEntry& e : roster()) {
    m.push_back({std::string(e.span) + ".run_s", 0, "s"});
  }
  const std::vector<Metric> rest = {
      {"lcl.verify_s", 0, "s"},
      {"lcl.verify_fail_ratio", 0, "ratio"},
      {"serve.admit_s", 0, "s"},
      {"serve.queue_emit_s", 0, "s"},
      {"serve.run_s", 0, "s"},
      {"serve.memo_hit_ratio", 0, "ratio"},
      {"store.memo_lookup_s", 0, "s"},
      {"store.memo_insert_s", 0, "s"},
      {"store.bytes_written", 0, "B"},
      {"obs.record_to_json_s", 0, "s"},
      {"self.bench_s", 0, "s"},
      {"self.graph_s", 0, "s"},
      {"self.local_s", 0, "s"},
      {"self.algo_s", 0, "s"},
      {"self.lcl_s", 0, "s"},
      {"self.serve_s", 0, "s"},
      {"self.store_s", 0, "s"},
      {"self.obs_s", 0, "s"},
      {"trace.overhead_latency_p50_s", 0, "s"},
      {"trace.overhead_jobs_per_s", 0, "1/s"},
      {"latency.samples", 0, "count"},
      {"latency.p95_tail_samples", 0, "count"},
      {"e2e.failed_ratio", 0, "ratio"},
      {"host.effective_parallelism", 0, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void set_metric(std::vector<Metric>& m, const std::string& name,
                double value) {
  for (Metric& x : m) {
    if (x.name == name) {
      x.value = value;
      return;
    }
  }
  CKP_CHECK_MSG(false, "no metric named " << name);
}

std::string json_number(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// ---------------------------------------------------------------------------
// Host provenance.

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

// Busy loop with a serial dependency chain; returns its wall time.
double spin_seconds(std::uint64_t iters, std::uint64_t* sink) {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    asm volatile("" : "+r"(x));  // keep every step of the chain
  }
  *sink = x;
  return since(t0);
}

// Effective parallelism: nproc threads each run the same spin as one
// thread alone; the host delivered nproc * t1 / t_all cores.
double effective_parallelism(int nproc) {
  constexpr std::uint64_t kIters = 20000000;
  std::uint64_t sink = 0;
  spin_seconds(kIters / 4, &sink);  // warm the core's clock
  const double t1 = spin_seconds(kIters, &sink);
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(nproc));
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < nproc; ++i) {
      threads.emplace_back([&sinks, i] {
        spin_seconds(kIters, &sinks[static_cast<std::size_t>(i)]);
      });
    }
    for (auto& t : threads) t.join();
  }
  const double tn = since(t0);
  return tn > 0 ? nproc * t1 / tn : 0.0;
}

// ---------------------------------------------------------------------------
// One measured phase of a workload.

struct Phase {
  Reservoir latency;  // one per attempted job
  WindowedMedian p50;  // the same latencies, for latency_p50_s
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unexpected = 0;  // failures outside the known defect
  std::string first_problem;
  double wall_s = 0.0;
  // serve_memo
  Reservoir admit_s;
  std::vector<double> run_s;         // warm-up misses: record wall_seconds
  std::vector<double> queue_emit_s;  // warm-up misses: latency - run_s
  // engine_roster
  std::uint64_t verify_calls = 0;
  std::uint64_t verify_fails = 0;

  void fail(bool expected, const std::string& what) {
    ++failed;
    if (!expected) {
      ++unexpected;
      if (first_problem.empty()) first_problem = what;
    }
  }

  // Adds the job and failure counts of `o`.
  void count(const Phase& o) {
    attempted += o.attempted;
    failed += o.failed;
    unexpected += o.unexpected;
    if (first_problem.empty()) first_problem = o.first_problem;
  }

  std::uint64_t verified() const { return attempted - failed; }
  double jobs_per_s() const {
    return wall_s > 0 ? static_cast<double>(verified()) / wall_s : 0.0;
  }
};

// Where the current phase records spans, and the next job id.
struct Run {
  Tracer* tracer = nullptr;  // null in untraced phases
  std::uint64_t next_job = 1;  // job id 0 is set-up
};

// Median duration of every span called `name`.
double span_median(const std::deque<Span>& spans, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (name == s.name) d.push_back(s.end_s - s.start_s);
  }
  return median(d);
}

// Per-job self time by layer over the job and replay trees (set-up spans,
// job id 0, are excluded: set-up has its own metric).
void set_self_times(std::vector<Metric>& m, const std::deque<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> by_layer;
  double roots = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].job == 0) continue;
    by_layer[spans[i].layer] += self[i];
    if (spans[i].parent < 0) roots += 1;
  }
  if (roots == 0) return;
  for (const char* layer :
       {"bench", "graph", "local", "algo", "lcl", "serve", "store", "obs"}) {
    set_metric(m, std::string("self.") + layer + "_s",
               by_layer[layer] / roots);
  }
}

// ---------------------------------------------------------------------------
// engine_roster

struct RosterSetup {
  EdgeColoredGraph bip;
  Graph tree;
  LocalInput rand_in;  // RandLOCAL on the bipartite graph
  LocalInput det_in;   // DetLOCAL: sequential ids
  LocalInput sink_in;  // RandLOCAL + the generator's edge coloring
  LocalInput tree_in;  // RandLOCAL on the complete tree
  double graph_s = 0.0;

  LocalInput& input_for(const RosterEntry& e) {
    if (e.tree) return tree_in;
    if (e.edge_labels) return sink_in;
    return e.deterministic ? det_in : rand_in;
  }
};

std::unique_ptr<RosterSetup> build_roster(std::uint64_t seed, Tracer* tr) {
  auto s = std::make_unique<RosterSetup>();
  SpanScope root(tr, "setup", "bench", -1, 0);
  const auto g0 = Clock::now();
  {
    SpanScope sp(tr, "graph.bipartite_regular_streamed", "graph", root.id(),
                 0);
    Rng rng(mix_seed(seed, 0xB1));
    s->bip = make_random_bipartite_regular_streamed(
        kRosterN / 2, kRosterDegree, rng, /*shard_nodes=*/1 << 16,
        /*threads=*/1);
  }
  {
    SpanScope sp(tr, "graph.complete_tree", "graph", root.id(), 0);
    s->tree = make_complete_tree(kRosterN, kTreeDelta);
  }
  s->graph_s = since(g0);
  SpanScope sp(tr, "local.inputs", "local", root.id(), 0);
  s->rand_in.graph = &s->bip.graph;
  s->det_in.graph = &s->bip.graph;
  s->det_in.ids = sequential_ids(kRosterN);
  s->sink_in.graph = &s->bip.graph;
  s->sink_in.edge_labels = s->bip.edge_color;
  s->tree_in.graph = &s->tree;
  return s;
}

EngineOptions single_thread() {
  EngineOptions o;
  o.threads = 1;
  return o;
}

std::string roster_record_json(const RosterEntry& e, const LocalInput& in,
                               const RosterOutput& out, bool verified,
                               double wall) {
  RunRecord rec;
  rec.bench = "perfbench";
  rec.algorithm = e.name;
  rec.graph_family =
      e.tree ? "complete_tree" : "bipartite_regular_streamed";
  rec.n = static_cast<std::uint64_t>(in.graph->num_nodes());
  rec.delta = in.graph->max_degree();
  rec.seed = e.deterministic ? 0 : in.seed;
  rec.rounds = out.rounds;
  rec.wall_seconds = wall;
  rec.verified = verified;
  rec.metric("engine_bytes", static_cast<double>(out.engine_bytes));
  return rec.to_json();
}

// Closed loop over whole roster cycles until `seconds` have passed.
void roster_phase(RosterSetup& s, std::uint64_t seed, double seconds,
                  Run& run, Phase& ph) {
  const EngineOptions opts = single_thread();
  const auto t0 = Clock::now();
  std::size_t json_bytes = 0;
  do {
    for (const RosterEntry& e : roster()) {
      const std::uint64_t job = run.next_job++;
      LocalInput& in = s.input_for(e);
      in.seed = mix_seed(seed, 0xE0, job);
      const auto j0 = Clock::now();
      SpanScope root(run.tracer, "job", "bench", -1, job);
      RosterOutput out;
      {
        SpanScope sp(run.tracer, e.span, "algo", root.id(), job);
        out = run_entry(e, in, e.max_rounds, opts);
      }
      bool ok = false;
      {
        SpanScope sp(run.tracer, "lcl.verify", "lcl", root.id(), job);
        ok = verify_entry(e, *in.graph, out);
      }
      const bool verified = out.completed && ok;
      {
        SpanScope sp(run.tracer, "obs.record_to_json", "obs", root.id(),
                     job);
        json_bytes += roster_record_json(e, in, out, verified, since(j0))
                          .size();
      }
      root.close();
      const double latency_s = since(j0);
      ph.latency.add(latency_s);
      ph.p50.add(latency_s);
      ++ph.attempted;
      ++ph.verify_calls;
      if (!ok) ++ph.verify_fails;
      if (!verified) {
        ph.fail(std::string(e.name) == "sinkless",
                std::string(e.name) + " output failed verification (job " +
                    std::to_string(job) + ")");
      }
    }
  } while (since(t0) < seconds);
  ph.wall_s += since(t0);
  CKP_CHECK(json_bytes > 0);
}

// The local-layer split of replayed jobs: each job's entry point is called
// once with its set-up cap (0; 1 for sinkless) and once in full.
struct LocalSplit {
  double init_s = 0, rounds_s = 0, node_rounds = 0, rounds = 0;
  double bytes = 0, nodes = 0, jobs = 0;

  void add(double t_init, double t_full, double n, const RosterOutput& out) {
    init_s += t_init;
    rounds_s += std::max(0.0, t_full - t_init);
    node_rounds += n * out.rounds;
    rounds += out.rounds;
    bytes += static_cast<double>(out.engine_bytes);
    nodes += n;
    jobs += 1;
  }

  void report(std::vector<Metric>& m) const {
    if (jobs == 0) return;
    set_metric(m, "local.setup_init_s", init_s / jobs);
    set_metric(m, "local.rounds_s", rounds_s / jobs);
    set_metric(m, "local.node_rounds_per_s",
               rounds_s > 0 ? node_rounds / rounds_s : 0.0);
    set_metric(m, "local.rounds", rounds);
    set_metric(m, "local.engine_bytes_per_node", bytes / nodes);
  }
};

// One job per roster entry, split into the entry point's set-up + init
// (round cap 0; 1 for sinkless) and the full call. The full call's output
// is verified like a measured job's; failures are counted in `check`.
void roster_replay(RosterSetup& s, std::uint64_t seed, Run& run,
                   std::vector<Metric>& m, Phase& check) {
  const EngineOptions opts = single_thread();
  LocalSplit split;
  for (const RosterEntry& e : roster()) {
    const std::uint64_t job = run.next_job++;
    LocalInput& in = s.input_for(e);
    in.seed = mix_seed(seed, 0xE1, job);
    SpanScope root(run.tracer, "replay", "bench", -1, job);
    auto t0 = Clock::now();
    {
      SpanScope sp(run.tracer, "local.setup_init", "local", root.id(), job);
      (void)run_entry(e, in, e.setup_cap, opts);
    }
    const double t_init = since(t0);
    t0 = Clock::now();
    RosterOutput out;
    {
      SpanScope sp(run.tracer, e.span, "algo", root.id(), job);
      out = run_entry(e, in, e.max_rounds, opts);
    }
    const double t_full = since(t0);
    bool ok = false;
    {
      SpanScope sp(run.tracer, "lcl.verify", "lcl", root.id(), job);
      ok = verify_entry(e, *in.graph, out);
    }
    ++check.attempted;
    if (!(out.completed && ok)) {
      check.fail(std::string(e.name) == "sinkless",
                 std::string(e.name) + " replay output failed verification");
    }
    split.add(t_init, t_full, static_cast<double>(in.graph->num_nodes()),
              out);
  }
  split.report(m);
}

// ---------------------------------------------------------------------------
// serve_memo: an in-process JobServer whose sink routes each line to the
// inbox of the client tag that caused it.

struct Inbox {
  std::mutex mu;  // guards lines
  std::condition_variable cv;
  std::deque<std::pair<std::string, Clock::time_point>> lines;
};

struct Reply {
  std::string line;
  double latency_s = 0.0;  // handle_line call to terminal line
  double admit_s = 0.0;    // handle_line call to its return
};

class ServeRig {
 public:
  static constexpr int kClients = 2;  // tag 0: control, 1: the client

  explicit ServeRig(const std::string& store_dir) {
    ServerOptions o;
    o.workers = 2;
    o.store_dir = store_dir;
    o.engine_threads = 1;
    server_ = std::make_unique<JobServer>(
        o, JobServer::TaggedSink([this](const std::string& line,
                                        std::uint64_t client) {
          const auto t = Clock::now();
          Inbox& box = inbox_[client];
          {
            std::lock_guard<std::mutex> lock(box.mu);
            box.lines.emplace_back(line, t);
          }
          box.cv.notify_one();
        }));
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  // Sends one line and waits for its terminal response (anything but the
  // non-terminal {"queued":true} acknowledgement).
  Reply request(const std::string& line, std::uint64_t client) {
    const auto t0 = Clock::now();
    server_->handle_line(line, client);
    Reply r;
    r.admit_s = since(t0);
    Inbox& box = inbox_[client];
    std::unique_lock<std::mutex> lock(box.mu);
    for (;;) {
      box.cv.wait(lock, [&] { return !box.lines.empty(); });
      auto [text, t] = std::move(box.lines.front());
      box.lines.pop_front();
      if (text.find("\"queued\":true") != std::string::npos) continue;
      r.latency_s = std::chrono::duration<double>(t - t0).count();
      r.line = std::move(text);
      return r;
    }
  }

  std::map<std::string, double> counters() {
    const Reply r = request("{\"op\":\"stats\"}", 0);
    std::map<std::string, double> out;
    const JsonValue doc = json_parse(r.line);
    for (const auto& [k, v] : doc.at("stats").at("counters").object) {
      out[k] = v.as_number();
    }
    return out;
  }

 private:
  Inbox inbox_[kClients];  // outlives server_, whose drain still emits
  std::unique_ptr<JobServer> server_;
};

struct JobSpec {
  const RosterEntry* entry;
  GraphSpec graph;
  std::uint64_t seed;
};

JobSpec job_spec(const RosterEntry& e, std::uint64_t n, std::uint64_t gseed,
                 std::uint64_t seed) {
  JobSpec j{&e, {}, seed};
  j.graph.family = e.tree ? "complete_tree" : "bipartite_regular";
  j.graph.n = n;
  j.graph.d = e.tree ? kTreeDelta : kRosterDegree;
  j.graph.seed = e.tree ? 0 : gseed;
  return j;
}

std::string run_line(const JobSpec& j, const std::string& id) {
  std::ostringstream out;
  out << "{\"op\":\"run\",\"id\":\"" << id << "\",\"algo\":\""
      << j.entry->name << "\",\"graph\":{\"family\":\"" << j.graph.family
      << "\",\"n\":" << j.graph.n << ",\"d\":" << j.graph.d
      << ",\"gseed\":" << j.graph.seed << "},\"seed\":" << j.seed << "}";
  return out.str();
}

MemoFacts facts_of(const JobSpec& j) {
  MemoFacts f;
  f.algorithm = j.entry->name;
  f.algo_version = make_algorithm(j.entry->name)->version();
  f.graph = j.graph;
  f.seed = j.seed;
  f.max_rounds = 1 << 20;  // the server's default cap
  return f;
}

// The "record" member of a done response, verbatim (it is the last member).
std::string record_bytes(const std::string& line) {
  const std::string key = "\"record\":";
  const auto at = line.find(key);
  if (at == std::string::npos || line.empty() || line.back() != '}') return {};
  return line.substr(at + key.size(),
                     line.size() - 1 - (at + key.size()));
}

// Checks one terminal response of a job the server ran (memo "miss", or
// "off" for a no_memo job); returns the parsed record, or nothing after
// counting the failure.
std::optional<JsonValue> check_run(const Reply& r, const char* memo,
                                   Phase& ph, const std::string& id) {
  try {
    const JsonValue doc = json_parse(r.line);
    if (doc.find("error") != nullptr) {
      ph.fail(false, id + ": " + doc.at("error").as_string());
      return std::nullopt;
    }
    const JsonValue& rec = doc.at("record");
    const bool ok = doc.at("memo").as_string() == memo &&
                    doc.at("cancelled").type == JsonValue::Type::Bool &&
                    !doc.at("cancelled").boolean &&
                    rec.at("verified").boolean;
    if (!ok) {
      ph.fail(false, id + ": not a verified " + memo + " run: " +
                         r.line.substr(0, 200));
      return std::nullopt;
    }
    // Read by the callers; a record without them is malformed.
    (void)rec.at("wall_seconds").as_number();
    (void)rec.at("metrics").at("digest_hi").as_number();
    (void)rec.at("metrics").at("digest_lo").as_number();
    return rec;
  } catch (const CheckFailure& e) {
    ph.fail(false, id + ": malformed response: " + e.what());
    return std::nullopt;
  }
}

std::pair<double, double> digest_of(const JsonValue& rec) {
  const JsonValue& m = rec.at("metrics");
  return {m.at("digest_hi").as_number(), m.at("digest_lo").as_number()};
}

std::string fresh_dir(const std::string& base, const std::string& name) {
  const fs::path p = fs::path(base) / name;
  fs::remove_all(p);
  return p.string();
}

std::uintmax_t dir_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& f : fs::recursive_directory_iterator(dir)) {
    if (f.is_regular_file()) total += f.file_size();
  }
  return total;
}

// serve_memo: the fixed job set, and the miss record each one stored.
struct MemoSet {
  std::vector<JobSpec> jobs;
  std::vector<std::string> tails;    // run line after the id
  std::vector<std::string> records;  // record bytes of the storing miss
  std::vector<std::pair<double, double>> digests;
};

MemoSet memo_set(std::uint64_t seed) {
  MemoSet s;
  std::uint64_t k = 0;
  for (int i = 0; i < kMemoSeeds; ++i) {
    for (const RosterEntry* e : served_entries()) {
      s.jobs.push_back(job_spec(*e, kSmallN, request_seed(seed, 0xD0, k),
                                request_seed(seed, 0xD1, k)));
      const std::string line = run_line(s.jobs.back(), "");
      s.tails.push_back(line.substr(line.find("\"\",") + 3));
      ++k;
    }
  }
  return s;
}

// Set-up: server start plus the warm-up pass that memoizes the job set.
// Each miss's record wall time, and the rest of its latency (queue wait and
// response emission), go into `check` for serve.run_s / serve.queue_emit_s.
std::unique_ptr<ServeRig> start_memo(const std::string& dir, MemoSet& set,
                                     Phase& check) {
  auto rig = std::make_unique<ServeRig>(dir);
  set.records.clear();
  set.digests.clear();
  for (std::size_t k = 0; k < set.jobs.size(); ++k) {
    const std::string id = "w" + std::to_string(k);
    const Reply r = rig->request(run_line(set.jobs[k], id), 1);
    ++check.attempted;
    const std::optional<JsonValue> rec = check_run(r, "miss", check, id);
    set.records.push_back(record_bytes(r.line));
    set.digests.emplace_back(rec ? digest_of(*rec)
                                 : std::pair<double, double>{-1, -1});
    if (!rec) continue;
    const double wall = rec->at("wall_seconds").as_number();
    check.run_s.push_back(wall);
    check.queue_emit_s.push_back(queue_emit_seconds(r.latency_s, wall));
  }
  return rig;
}

// Runs every job of the set once more with no_memo, so the server computes
// it afresh instead of answering from the memo, and checks that the fresh
// output digest equals the one in the memoized record. A hit is checked
// byte-identical to that record, so this ties every hit to the program's
// actual output. Not part of set-up time.
void check_digests(ServeRig& rig, const MemoSet& set, Phase& check) {
  for (std::size_t k = 0; k < set.jobs.size(); ++k) {
    const std::string id = "f" + std::to_string(k);
    std::string line = run_line(set.jobs[k], id);
    line.insert(line.size() - 1, ",\"no_memo\":true");
    const Reply r = rig.request(line, 1);
    ++check.attempted;
    const std::optional<JsonValue> rec = check_run(r, "off", check, id);
    if (rec && digest_of(*rec) != set.digests[k]) {
      check.fail(false, "memoized digest of job set entry " +
                            std::to_string(k) +
                            " differs from a fresh no_memo run's");
    }
  }
}

// Closed loop over the job set until `seconds` have passed or `max_jobs`
// requests were sent.
void memo_phase(ServeRig& rig, const MemoSet& set, double seconds,
                std::uint64_t max_jobs, Run& run, Phase& ph) {
  const auto t0 = Clock::now();
  std::string line;
  for (std::uint64_t k = 0; k < max_jobs && since(t0) < seconds; ++k) {
    const std::size_t i = static_cast<std::size_t>(k % set.jobs.size());
    const std::uint64_t job = run.next_job++;
    line.assign("{\"op\":\"run\",\"id\":\"m");
    line += std::to_string(job);
    line += "\",";
    line += set.tails[i];
    SpanScope root(run.tracer, "job", "serve", -1, job);
    Reply r;
    {
      SpanScope sp(run.tracer, "serve.handle_line", "serve", root.id(), job);
      r = rig.request(line, 1);
    }
    root.close();
    ++ph.attempted;
    ph.latency.add(r.latency_s);
    ph.p50.add(r.latency_s);
    ph.admit_s.add(r.admit_s);
    const bool hit = r.line.find("\"memo\":\"hit\"") != std::string::npos;
    const std::string rec = record_bytes(r.line);
    if (!hit || rec != set.records[i]) {
      ph.fail(false, "memo replay of job set entry " + std::to_string(i) +
                         " is not a byte-identical hit: " +
                         r.line.substr(0, 200));
    }
  }
  ph.wall_s += since(t0);
}

// Lookups (hits) of the job set through ResultMemo on the served store,
// then inserts of the same records into a fresh store of its own: the
// store's reads and writes, timed one call per span.
void memo_replay(const MemoSet& set, const std::string& dir,
                 const std::string& write_dir, Run& run,
                 std::vector<Metric>& m) {
  const ArtifactStore store(dir);
  const ResultMemo memo(&store);
  std::vector<double> lookup;
  for (int pass = 0; pass < 8; ++pass) {
    for (std::size_t i = 0; i < set.jobs.size(); ++i) {
      const MemoFacts facts = facts_of(set.jobs[i]);
      const std::uint64_t job = run.next_job++;
      SpanScope root(run.tracer, "replay", "bench", -1, job);
      const auto t0 = Clock::now();
      std::optional<std::string> hit;
      {
        SpanScope sp(run.tracer, "store.memo_lookup", "store", root.id(),
                     job);
        hit = memo.lookup(facts);
      }
      lookup.push_back(since(t0));
      CKP_CHECK_MSG(hit && *hit == set.records[i],
                    "ResultMemo lookup disagrees with the served hit");
    }
  }
  set_metric(m, "store.memo_lookup_s", median(lookup));

  const ArtifactStore fresh(write_dir);
  const ResultMemo writer(&fresh);
  std::vector<double> insert;
  for (std::size_t i = 0; i < set.jobs.size(); ++i) {
    const MemoFacts facts = facts_of(set.jobs[i]);
    const std::uint64_t job = run.next_job++;
    SpanScope root(run.tracer, "replay", "bench", -1, job);
    const auto t0 = Clock::now();
    {
      SpanScope sp(run.tracer, "store.memo_insert", "store", root.id(), job);
      writer.insert(facts, set.records[i]);
    }
    insert.push_back(since(t0));
  }
  set_metric(m, "store.memo_insert_s", median(insert));
  set_metric(m, "store.bytes_written",
             static_cast<double>(dir_bytes(write_dir)) /
                 static_cast<double>(set.jobs.size()));
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_sha;
  std::string source_sha;
  std::string build_type;
};

void print_provenance(const Options& o, int nproc, double eff, int cpu) {
  JsonWriter w;
  w.begin_object();
  w.key("provenance").begin_object();
  w.key("workload").value(o.workload);
  w.key("seed").value(o.seed);
  w.key("seconds").value(o.seconds);
  w.key("trace").value(o.trace);
  w.key("nproc").value(nproc);
  w.key("effective_parallelism").value(eff);
  w.key("pinned_cpu").value(cpu);
  w.key("git_sha").value(o.git_sha);
  w.key("source_sha256").value(o.source_sha);
  w.key("build_type").value(o.build_type);
  w.end_object();
  w.end_object();
  std::cout << w.str() << "\n";
}

// End-to-end metrics of one phase (plus set-up), in BENCHMARK.json order.
std::vector<Metric> end_to_end(const Phase& ph, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"jobs_per_s", ph.jobs_per_s(), "1/s"},
      {"latency_p50_s", ph.p50.value(), "s"},
      {"latency_p95_s", rank_percentile(ph.latency.values(), 0.95), "s"},
      {"success_ratio", 1.0 - failed_ratio(ph.failed, ph.attempted),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void print_summary(const std::string& workload, const char* label,
                   const Phase& ph, double setup_s) {
  const std::uint64_t n = ph.latency.count();
  std::cout << "# " << workload << " [" << label << "] setup_s=" << setup_s
            << " jobs=" << ph.attempted << " failed=" << ph.failed
            << " failed_ratio=" << failed_ratio(ph.failed, ph.attempted)
            << " jobs_per_s=" << ph.jobs_per_s()
            << " latency_p50_s=" << ph.p50.value()
            << " whole_run_p50_s=" << rank_percentile(ph.latency.values(), 0.50)
            << " latency_p95_s=" << rank_percentile(ph.latency.values(), 0.95)
            << " samples=" << n
            << " p95_tail_samples=" << tail_samples(n, 0.95)
            << " highest_percentile_with_10_tail="
            << highest_supported_percentile(n) << "\n";
}

// Pins the calling thread, and every thread it starts later, to the highest
// CPU it may run on (CPU 0 usually takes the device interrupts); returns
// that CPU, or -1 if pinning failed. The 4-vCPU VMs this benchmark was
// tuned on deliver about one core, and how many vCPUs run at a given
// moment drifts over minutes. Unpinned, a memo hit's p95 moved by up to 30%
// between batches of five runs; pinned, by 4-8%.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int run_main(const Options& o) {
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // Calibrate before pinning, so it measures what the host delivers.
  const double eff = effective_parallelism(nproc);
  const int cpu = pin_to_one_cpu();
  print_provenance(o, nproc, eff, cpu);
  fs::create_directories(o.out_dir);

  Tracer tracer(kSpanCapacity);
  Run run;
  Phase check;  // set-up jobs: checked, never counted in the metrics
  std::vector<double> setups;
  Phase untraced;
  Phase traced;
  std::vector<Metric> layer = per_layer_template();
  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  Tracer* tr = o.trace ? &tracer : nullptr;

  if (o.workload == "engine_roster") {
    std::unique_ptr<RosterSetup> s;
    std::vector<double> graph_s;
    for (int rep = 0; rep < kRosterSetups; ++rep) {
      s.reset();
      const auto t0 = Clock::now();
      s = build_roster(o.seed, rep == 0 ? tr : nullptr);
      setups.push_back(since(t0));
      graph_s.push_back(s->graph_s);
    }
    CKP_CHECK_MSG(is_proper_edge_coloring(s->bip.graph, s->bip.edge_color,
                                          s->bip.num_colors),
                  "generator's edge coloring is not proper");
    roster_phase(*s, o.seed, untraced_s, run, untraced);
    if (o.trace) {
      run.tracer = &tracer;
      roster_phase(*s, o.seed, o.seconds / 2, run, traced);
      roster_replay(*s, o.seed, run, layer, check);
      const double g = median(graph_s);
      set_metric(layer, "graph.build_s", g);
      set_metric(layer, "graph.nodes_per_s", 2.0 * kRosterN / g);
      for (const RosterEntry& e : roster()) {
        set_metric(layer, std::string(e.span) + ".run_s",
                   span_median(tracer.spans(), e.span));
      }
      set_metric(layer, "lcl.verify_s",
                 span_median(tracer.spans(), "lcl.verify"));
      set_metric(layer, "lcl.verify_fail_ratio",
                 failed_ratio(traced.verify_fails, traced.verify_calls));
      set_metric(layer, "obs.record_to_json_s",
                 span_median(tracer.spans(), "obs.record_to_json"));
    }
  } else if (o.workload == "serve_memo") {
    MemoSet set = memo_set(o.seed);
    std::unique_ptr<ServeRig> rig;
    double hits = 0, misses = 0;
    for (int seg = 0; seg < kMemoSegments; ++seg) {
      rig.reset();  // stops the old server before its store goes
      const std::string dir = fresh_dir(o.out_dir, "serve_memo_store");
      const auto t0 = Clock::now();
      rig = start_memo(dir, set, check);
      setups.push_back(since(t0));
      check_digests(*rig, set, check);
      run.tracer = nullptr;
      memo_phase(*rig, set, untraced_s / kMemoSegments,
                 std::numeric_limits<std::uint64_t>::max(), run, untraced);
      if (!o.trace) continue;
      run.tracer = &tracer;
      auto before = rig->counters();
      memo_phase(*rig, set, o.seconds / 2 / kMemoSegments, kMemoTracedJobs,
                 run, traced);
      auto after = rig->counters();
      hits += after["serve.memo_hits"] - before["serve.memo_hits"];
      misses += after["serve.memo_misses"] - before["serve.memo_misses"];
      if (seg == kMemoSegments - 1) {
        memo_replay(set, dir, fresh_dir(o.out_dir, "serve_memo_replay"),
                    run, layer);
      }
    }
    if (o.trace) {
      set_metric(layer, "serve.memo_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0);
      set_metric(layer, "serve.admit_s", median(traced.admit_s.values()));
      set_metric(layer, "serve.queue_emit_s", median(check.queue_emit_s));
      set_metric(layer, "serve.run_s", median(check.run_s));
    }
  } else {
    std::cerr << "unknown workload " << o.workload
              << " (engine_roster, serve_memo)\n";
    return 2;
  }

  const double setup_s = median(setups);
  print_summary(o.workload, "untraced", untraced, setup_s);
  Phase all;
  all.count(untraced);
  all.count(traced);
  all.count(check);
  const bool correct = all.unexpected == 0;
  if (!correct) {
    std::cout << "# UNEXPECTED OUTPUT: " << all.first_problem << " ("
              << all.unexpected << " unexpected failures)\n";
  }
  if (!o.trace) {
    print_result(correct, untraced.attempted, untraced.failed,
                 end_to_end(untraced, setup_s));
    return correct ? 0 : 1;
  }

  print_summary(o.workload, "traced", traced, setup_s);
  CKP_CHECK_MSG(tracer.dropped() == 0,
                tracer.dropped() << " spans dropped beyond the in-memory cap;"
                                    " self times would be partial");
  const std::deque<Span>& spans = tracer.spans();
  set_self_times(layer, spans);
  set_metric(layer, "trace.overhead_latency_p50_s",
             traced.p50.value() - untraced.p50.value());
  set_metric(layer, "trace.overhead_jobs_per_s",
             untraced.jobs_per_s() - traced.jobs_per_s());
  set_metric(layer, "latency.samples",
             static_cast<double>(untraced.latency.count()));
  set_metric(layer, "latency.p95_tail_samples",
             static_cast<double>(tail_samples(untraced.latency.count(), 0.95)));
  set_metric(layer, "e2e.failed_ratio",
             failed_ratio(untraced.failed, untraced.attempted));
  set_metric(layer, "host.effective_parallelism", eff);
  const std::string trace_path =
      (fs::path(o.out_dir) / ("trace_" + o.workload + ".json")).string();
  CKP_CHECK_MSG(write_chrome_trace(trace_path, spans, kTraceEventsCap),
                "cannot write " << trace_path);
  std::cout << "# chrome trace: " << trace_path << " (" << spans.size()
            << " spans recorded)\n";
  print_result(correct, untraced.attempted + traced.attempted,
               untraced.failed + traced.failed, layer);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    Options o;
    o.workload = flags.get_string("workload", "");
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    o.seconds = flags.get_double("seconds", 10);
    o.trace = flags.get_int("trace", 0) != 0;
    o.out_dir = flags.get_string("out_dir", "perfbench_out");
    o.git_sha = flags.get_string("git_sha", "unknown");
    o.source_sha = flags.get_string("source_sha", "unknown");
    o.build_type = flags.get_string("build_type", "unknown");
    flags.check_unknown();
    CKP_CHECK_MSG(o.seconds > 0, "--seconds must be positive");
    return run_main(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
