#include "serve/server.hpp"

#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/run_record.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

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

// Integer-valued JSON number; rejects fractional values so "n":10.5 cannot
// silently truncate.
std::int64_t int_field(const JsonValue& doc, const std::string& name,
                       std::int64_t def) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return def;
  const double num = v->as_number();
  CKP_CHECK_MSG(num == std::floor(num) && std::abs(num) <= 1e15,
                "field " << name << " is not an integer");
  return static_cast<std::int64_t>(num);
}

bool bool_field(const JsonValue& doc, const std::string& name, bool def) {
  const JsonValue* v = doc.find(name);
  if (v == nullptr) return def;
  CKP_CHECK_MSG(v->type == JsonValue::Type::Bool,
                "field " << name << " is not a boolean");
  return v->boolean;
}

std::string error_response(const std::string& id, const std::string& what) {
  JsonWriter w;
  w.begin_object();
  if (!id.empty()) w.key("id").value(id);
  w.key("error").value(what);
  w.end_object();
  return w.str();
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
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

JobServer::~JobServer() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
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
    emit(error_response("", e.what()), client);
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
    job->graph.n = static_cast<std::uint64_t>(int_field(graph, "n", 0));
    job->graph.d = static_cast<int>(int_field(graph, "d", 0));
    job->graph.seed =
        static_cast<std::uint64_t>(int_field(graph, "gseed", 0));

    job->seed = static_cast<std::uint64_t>(int_field(doc, "seed", 1));
    job->max_rounds =
        static_cast<int>(int_field(doc, "max_rounds", 1 << 20));
    CKP_CHECK_MSG(job->max_rounds >= 1, "max_rounds must be >= 1");
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
    job->budget->step_limit =
        static_cast<std::uint64_t>(int_field(doc, "step_limit", 0));

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

    // Rejections are emitted after mu_ is released: the sink must never be
    // invoked under mu_ (a sink that consults server state — counter(),
    // stats — would otherwise close a lock cycle through sink_mu_).
    std::string reject;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_.find(id) != active_.end()) {
        metrics_.add("serve.errors");
        reject = "job id already in flight";
      } else if (static_cast<int>(queue_.size()) + in_flight_ >=
                 opts_.queue_limit) {
        metrics_.add("serve.jobs_rejected");
        reject = "queue full (limit " + std::to_string(opts_.queue_limit) +
                 ")";
      } else {
        job->client = client;
        active_[id] = job->budget.get();
        queue_.push_back(std::move(job));
        metrics_.add("serve.jobs_admitted");
      }
    }
    if (!reject.empty()) {
      emit(error_response(id, reject), client);
      return;
    }
    queue_cv_.notify_one();
    JsonWriter w;
    w.begin_object();
    w.key("id").value(id);
    w.key("queued").value(true);
    w.end_object();
    emit(w.str(), client);
  } catch (const CheckFailure& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.add("serve.errors");
    }
    emit(error_response(id, e.what()), client);
  }
}

void JobServer::cancel(const JsonValue& doc, std::uint64_t client) {
  std::string id;
  bool delivered = false;
  try {
    check_members(doc, {"op", "id"});
    id = doc.at("id").as_string();
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = active_.find(id);
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
    emit(error_response(id, e.what()), client);
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
  bool cancelled = false;
  try {
    const BuiltGraph built = build_graph(job.graph);
    const LocalInput input = prepare_input(*job.algo, built, job.seed);
    EngineOptions eopts;
    eopts.threads = opts_.engine_threads;
    eopts.budget = job.budget.get();
    const AlgoRun run =
        job.algo->run(input, job.max_rounds, eopts, job.params);
    const BudgetStop stop = job.budget->stop_reason();
    cancelled =
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
      active_.erase(job.id);
    }
    response = done_response(job.id, job.no_memo || !memo_.enabled()
                                         ? "off"
                                         : "miss",
                             cancelled, stop, record_json);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      metrics_.add("serve.errors");
      active_.erase(job.id);
    }
    response = error_response(job.id, e.what());
  }
  emit(response, job.client);
  heartbeat_.step();
}

void JobServer::dispatch_loop() {
  for (;;) {
    std::vector<std::unique_ptr<Job>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ = static_cast<int>(batch.size());
    }
    const int workers =
        std::min(opts_.workers, static_cast<int>(batch.size()));
    if (workers <= 1) {
      // Inline on the dispatcher: the one mode where a job's own engine
      // rounds may still fan out (engine_threads > 1).
      for (auto& job : batch) execute(*job);
    } else {
      // One job per chunk under work-stealing: whichever worker drains its
      // job first claims the next, so a mix of 1 ms and 10 s jobs keeps
      // every worker busy until the batch tail.
      ThreadPool& pool = shared_pool(workers);
      auto run_jobs = [&](std::int64_t begin, std::int64_t end,
                          int chunk) {
        (void)chunk;
        for (std::int64_t i = begin; i < end; ++i) {
          execute(*batch[static_cast<std::size_t>(i)]);
        }
      };
      pool.parallel_for_dynamic(0, static_cast<std::int64_t>(batch.size()),
                                workers, static_cast<int>(batch.size()),
                                run_jobs);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ = 0;
    }
    idle_cv_.notify_all();
  }
}

void JobServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
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
