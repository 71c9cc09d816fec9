#include "serve/server.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "obs/run_record.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace ckp {

namespace {

// Fail-on-typo over the request object itself: a misspelled "dedline_ms"
// must error, not silently run without a deadline.
void check_members(const JsonValue& doc,
                   const std::vector<std::string>& allowed) {
  for (const auto& [name, value] : doc.object) {
    (void)value;
    bool known = false;
    for (const auto& a : allowed) {
      if (a == name) {
        known = true;
        break;
      }
    }
    CKP_CHECK_MSG(known, "unknown request field \"" << name << "\"");
  }
}

double number_field(const JsonValue& doc, const std::string& name,
                    double def) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return def;
  return v->as_number();
}

// Bounds for int_field: JSON integers beyond 1e15 are rejected outright.
constexpr std::int64_t kJsonIntMax = 1'000'000'000'000'000;
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

// Integer-valued JSON number in [lo, hi]; rejects fractional values so
// "n":10.5 cannot silently truncate, and out-of-range ones so
// "max_rounds":4294967297 cannot wrap to 1 when narrowed to int.
std::int64_t int_field(const JsonValue& doc, const std::string& name,
                       std::int64_t def, std::int64_t lo, std::int64_t hi) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return def;
  const double num = v->as_number();
  CKP_CHECK_MSG(num == std::floor(num) &&
                    std::abs(num) <= static_cast<double>(kJsonIntMax),
                "field " << name << " is not an integer");
  const auto out = static_cast<std::int64_t>(num);
  CKP_CHECK_MSG(out >= lo && out <= hi, "field " << name << " = " << out
                                                  << " is outside [" << lo
                                                  << ", " << hi << "]");
  return out;
}

bool bool_field(const JsonValue& doc, const std::string& name, bool def) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return def;
  CKP_CHECK_MSG(v->type == JsonValue::Type::Bool,
                "field " << name << " is not a boolean");
  return v->boolean;
}

// Decade buckets from 1µs to 100s for the queue-wait and run histograms.
const std::vector<double> kSecondsBounds = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                            1e-1, 1.0,  10.0, 100.0};

std::string error_response(const std::string& id, const std::string& what) {
  JsonWriter w;
  w.begin_object();
  if (!id.empty()) w.key("id").value(id);
  w.key("error").value(what);
  w.end_object();
  return w.str();
}

// A failed request's error line. A check failure sends only its message —
// never the checked expression or the source path in what() — or a fixed
// "malformed request" when the check carried no message.
std::string error_response(const std::string& id, const std::exception& e) {
  const auto* check = dynamic_cast<const CheckFailure*>(&e);
  if (check == nullptr) return error_response(id, std::string(e.what()));
  return error_response(id, check->message().empty() ? "malformed request"
                                                     : check->message());
}

std::string done_response(const std::string& id, const char* memo,
                          bool cancelled, BudgetStop stop,
                          const std::string& record_json) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("done").value(true);
  w.key("memo").value(memo);
  w.key("cancelled").value(cancelled);
  w.key("stop").value(budget_stop_name(stop));
  w.key("record").raw(record_json);
  w.end_object();
  return w.str();
}

}  // namespace

JobServer::JobServer(ServerOptions options, Sink sink)
    : JobServer(std::move(options),
                TaggedSink([sink = std::move(sink)](const std::string& line,
                                                    std::uint64_t) {
                  sink(line);
                })) {}

JobServer::JobServer(ServerOptions options, TaggedSink sink)
    : opts_(std::move(options)),
      sink_(std::move(sink)),
      store_(opts_.store_dir.empty()
                 ? std::nullopt
                 : std::make_optional<ArtifactStore>(opts_.store_dir)),
      memo_(store_ ? &*store_ : nullptr),
      heartbeat_("serve.jobs", 0, opts_.heartbeat_seconds,
                 opts_.heartbeat_sink, opts_.now) {
  CKP_CHECK_MSG(opts_.workers >= 1, "server needs workers >= 1");
  CKP_CHECK_MSG(opts_.queue_limit >= 1, "server needs queue_limit >= 1");
  try {
    for (int i = 0; i < opts_.workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_workers();  // join those already started, or the program ends
    throw;
  }
}

JobServer::~JobServer() {
  drain();
  stop_workers();
}

void JobServer::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool JobServer::handle_line(const std::string& line, std::uint64_t client) {
  // Serialize concurrent transport threads: admission (including the memo
  // fast path) keeps its single-caller invariants, and each client's own
  // request order is preserved.
  std::lock_guard<std::mutex> transport_lock(transport_mu_);
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return true;
  JsonValue doc;
  std::string op;
  try {
    doc = json_parse(line);
    CKP_CHECK_MSG(doc.is_object(), "request must be a JSON object");
    op = doc.at("op").as_string();
  } catch (const CheckFailure& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.add("serve.errors");
    }
    emit(error_response("", e), client);
    return true;
  }
  if (op == "run") {
    admit(doc, client);
    return true;
  }
  if (op == "cancel") {
    cancel(doc, client);
    return true;
  }
  if (op == "stats") {
    emit(stats_json(), client);
    return true;
  }
  if (op == "shutdown") {
    drain();
    JsonWriter w;
    w.begin_object();
    w.key("shutdown").value(true);
    w.key("jobs_completed").value(counter("serve.jobs_completed"));
    w.end_object();
    emit(w.str(), client);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.add("serve.errors");
  }
  emit(error_response("", "unknown op \"" + op + "\""), client);
  return true;
}

void JobServer::admit(const JsonValue& doc, std::uint64_t client) {
  std::string id;
  try {
    check_members(doc, {"op", "id", "algo", "graph", "seed", "max_rounds",
                        "params", "deadline_ms", "step_limit", "no_memo"});
    id = doc.at("id").as_string();
    CKP_CHECK_MSG(!id.empty(), "job id must be non-empty");

    auto job = std::make_unique<Job>();
    job->id = id;
    job->algo = make_algorithm(doc.at("algo").as_string());

    const JsonValue& graph = doc.at("graph");
    CKP_CHECK_MSG(graph.is_object(), "field graph must be an object");
    check_members(graph, {"family", "n", "d", "gseed"});
    job->graph.family = graph.at("family").as_string();
    job->graph.n =
        static_cast<std::uint64_t>(int_field(graph, "n", 0, 0, kJsonIntMax));
    job->graph.d = static_cast<int>(int_field(graph, "d", 0, 0, kIntMax));
    job->graph.seed = static_cast<std::uint64_t>(
        int_field(graph, "gseed", 0, 0, kJsonIntMax));

    job->seed =
        static_cast<std::uint64_t>(int_field(doc, "seed", 1, 0, kJsonIntMax));
    job->max_rounds =
        static_cast<int>(int_field(doc, "max_rounds", 1 << 20, 1, kIntMax));
    job->no_memo = bool_field(doc, "no_memo", false);

    if (const JsonValue* params = doc.find("params")) {
      CKP_CHECK_MSG(params->is_object(), "field params must be an object");
      for (const auto& [key, value] : params->object) {
        CKP_CHECK_MSG(value.type == JsonValue::Type::String,
                      "param " << key << " must be a JSON string");
        job->params[key] = value.string;
      }
    }

    job->budget = std::make_unique<RunBudget>();
    job->budget->now = opts_.now;
    const double deadline_ms = number_field(doc, "deadline_ms", 0.0);
    CKP_CHECK_MSG(deadline_ms >= 0.0, "deadline_ms must be >= 0");
    if (deadline_ms > 0.0) {
      job->budget->deadline =
          steady_now(opts_.now) +
          std::chrono::duration_cast<SteadyClock::duration>(
              std::chrono::duration<double, std::milli>(deadline_ms));
    }
    job->budget->step_limit = static_cast<std::uint64_t>(
        int_field(doc, "step_limit", 0, 0, kJsonIntMax));

    job->facts.algorithm = job->algo->name();
    job->facts.algo_version = job->algo->version();
    job->facts.params = job->params;
    job->facts.graph = job->graph;
    job->facts.seed = job->seed;
    job->facts.max_rounds = job->max_rounds;

    // Memo fast path: a prior completed run with the same semantic identity
    // answers at admission time — zero queueing, zero engine rounds, the
    // original record re-emitted byte-identically.
    if (!job->no_memo && memo_.enabled()) {
      if (std::optional<std::string> hit = memo_.lookup(job->facts)) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          metrics_.add("serve.memo_hits");
        }
        emit(done_response(id, "hit", /*cancelled=*/false,
                           BudgetStop::kNone, *hit),
             client);
        return;
      }
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.add("serve.memo_misses");
    }

    // Responses are emitted after mu_ is released: the sink must never be
    // invoked under mu_ (a sink that consults server state — counter(),
    // stats — would otherwise close a lock cycle through sink_mu_). The job
    // takes its slot in active_ first and reaches the queue only after its
    // "queued" line is out, so no worker can emit its terminal line ahead.
    std::string reject;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_.count({client, id}) != 0) {
        metrics_.add("serve.errors");
        reject = "job id already in flight";
      } else if (static_cast<int>(active_.size()) >= opts_.queue_limit) {
        metrics_.add("serve.jobs_rejected");
        reject = "queue full (limit " + std::to_string(opts_.queue_limit) +
                 ")";
      } else {
        job->client = client;
        job->admitted = steady_now(opts_.now);
        active_[{client, id}] = job->budget.get();
        metrics_.add("serve.jobs_admitted");
      }
    }
    if (!reject.empty()) {
      emit(error_response(id, reject), client);
      return;
    }
    JsonWriter w;
    w.begin_object();
    w.key("id").value(id);
    w.key("queued").value(true);
    w.end_object();
    emit(w.str(), client);
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(job));
    }
    queue_cv_.notify_one();
  } catch (const CheckFailure& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.add("serve.errors");
    }
    emit(error_response(id, e), client);
  }
}

void JobServer::cancel(const JsonValue& doc, std::uint64_t client) {
  std::string id;
  bool delivered = false;
  try {
    check_members(doc, {"op", "id"});
    id = doc.at("id").as_string();
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = active_.find({client, id});
    if (it != active_.end()) {
      // Queued jobs trip the engine's pre-loop budget check (0 rounds);
      // running jobs stop at their next round barrier.
      it->second->request_cancel();
      delivered = true;
      metrics_.add("serve.cancels_delivered");
    }
  } catch (const CheckFailure& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.add("serve.errors");
    }
    emit(error_response(id, e), client);
    return;
  }
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("cancel_delivered").value(delivered);
  w.end_object();
  emit(w.str(), client);
}

void JobServer::execute(Job& job) {
  Timer wall(opts_.now);
  std::string response;
  bool failed = false;
  try {
    const BuiltGraph built = build_graph(job.graph);
    const LocalInput input = prepare_input(*job.algo, built, job.seed);
    EngineOptions eopts;
    // With several workers the jobs share the cores, so rounds stay on one.
    eopts.threads = opts_.workers == 1 ? opts_.engine_threads : 1;
    eopts.budget = job.budget.get();
    const AlgoRun run =
        job.algo->run(input, job.max_rounds, eopts, job.params);
    const BudgetStop stop = job.budget->stop_reason();
    const bool cancelled =
        stop == BudgetStop::kCancelled || stop == BudgetStop::kDeadline;

    RunRecord rec;
    rec.bench = "serve";
    rec.algorithm = job.algo->name();
    rec.graph_family = job.graph.family;
    rec.n = job.graph.n;
    rec.delta = job.graph.d;
    rec.seed = job.seed;
    rec.rounds = run.rounds;
    rec.wall_seconds = wall.seconds();
    rec.verified = run.verified;
    rec.metric("completed", run.completed ? 1.0 : 0.0);
    rec.metric("cancelled", cancelled ? 1.0 : 0.0);
    rec.metric("engine_bytes", static_cast<double>(run.engine_bytes));
    // 32-bit halves are exact in doubles; together they are the full
    // output-digest determinism witness.
    rec.metric("digest_hi", static_cast<double>(run.output_digest >> 32));
    rec.metric("digest_lo",
               static_cast<double>(run.output_digest & 0xffffffffULL));
    for (const auto& [name, value] : run.metrics) rec.metric(name, value);
    const std::string record_json = rec.to_json();

    // Only a full, verified, un-budgeted success is a cacheable pure
    // function of the memo facts; a budget-stopped partial result is not.
    const bool memoize = run.completed && run.verified && !job.no_memo &&
                         stop == BudgetStop::kNone && memo_.enabled();
    if (memoize) memo_.insert(job.facts, record_json);

    {
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.add("serve.jobs_completed");
      if (cancelled) metrics_.add("serve.jobs_cancelled");
      if (memoize) metrics_.add("serve.memo_stores");
      metrics_.add("serve.engine_rounds_total",
                   static_cast<double>(run.rounds));
    }
    response = done_response(job.id, job.no_memo || !memo_.enabled()
                                         ? "off"
                                         : "miss",
                             cancelled, stop, record_json);
  } catch (const std::exception& e) {
    failed = true;
    response = error_response(job.id, e);
  }
  {
    // The job leaves the active set before its terminal line goes out, so a
    // client that has read that line finds its slot and its id free.
    std::lock_guard<std::mutex> lock(mu_);
    if (failed) metrics_.add("serve.errors");
    metrics_.histogram("serve.run_s", kSecondsBounds).add(wall.seconds());
    active_.erase({job.client, job.id});
  }
  emit(response, job.client);
  heartbeat_.step();
}

void JobServer::worker_loop() {
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      metrics_.histogram("serve.queue_wait_s", kSecondsBounds)
          .add(std::chrono::duration<double>(steady_now(opts_.now) -
                                             job->admitted)
                   .count());
    }
    execute(*job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    idle_cv_.notify_all();
  }
}

void JobServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void JobServer::wait_for_room() {
  // Workers notify idle_cv_ after every job, once its slot in active_ is
  // free.
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] {
    return static_cast<int>(active_.size()) < opts_.queue_limit;
  });
}

double JobServer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.counter(name);
}

std::string JobServer::stats_json() {
  JsonWriter w;
  w.begin_object();
  w.key("stats");
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.raw(metrics_.to_json());
  }
  w.end_object();
  return w.str();
}

void JobServer::emit(const std::string& line, std::uint64_t client) {
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_(line, client);
}

}  // namespace ckp
