// The job-server stack: registry adapters, execution budgets at the round
// barrier, the memo key discipline, and the JobServer protocol.
//
// The heavyweight claims under test:
//
//   * a budget that never triggers leaves results bit-identical to an
//     un-budgeted run;
//   * a budget stop lands on a round barrier — the partial state equals a
//     full run capped at exactly that round, never a torn hybrid;
//   * memo keys include the algorithm version but exclude threads and
//     scheduler, and a memo hit re-emits the original RunRecord
//     byte-identically;
//   * a cancelled job terminates with cancelled=true and is never memoized.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <unistd.h>
#include <string>
#include <thread>
#include <vector>

#include "local/budget.hpp"
#include "obs/run_record.hpp"
#include "reference_engine.hpp"
#include "serve/memo.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/spin_program.hpp"
#include "store/artifact_store.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace ckp {
namespace {

// Injectable steady clock shared by the deadline tests.
std::atomic<std::int64_t> g_fake_ms{0};
SteadyTime fake_now() {
  return SteadyTime{} + std::chrono::milliseconds(g_fake_ms.load());
}

// Process-unique scratch directory: runs under different binaries (plain,
// ASan, TSan) must not see each other's memo artifacts.
std::string temp_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "ckp_serve_" +
                    std::to_string(::getpid()) + "_" + tag + "_" +
                    std::to_string(counter.fetch_add(1));
  return dir;
}

// --------------------------------------------------------------------------
// Registry

TEST(ServeRegistry, RosterRoundTripsAndRejectsUnknown) {
  for (const std::string& name : algorithm_roster()) {
    const auto algo = make_algorithm(name);
    EXPECT_EQ(algo->name(), name);
    EXPECT_GE(algo->version(), 1);
  }
  EXPECT_THROW(make_algorithm("lubby"), CheckFailure);
  EXPECT_THROW(make_algorithm(""), CheckFailure);
}

TEST(ServeRegistry, BuildGraphFamilies) {
  {
    GraphSpec spec{"cycle", 64, 0, 0};
    const BuiltGraph g = build_graph(spec);
    EXPECT_EQ(g.graph.num_nodes(), 64);
    EXPECT_TRUE(g.edge_labels.empty());
  }
  {
    GraphSpec spec{"bipartite_regular", 200, 3, 7};
    const BuiltGraph g = build_graph(spec);
    EXPECT_EQ(g.graph.num_nodes(), 200);
    EXPECT_EQ(g.edge_labels.size(),
              static_cast<std::size_t>(g.graph.num_edges()));
    EXPECT_EQ(g.num_labels, 3);
  }
  {
    // Same spec builds bit-identical topology.
    GraphSpec spec{"random_regular", 100, 4, 11};
    const BuiltGraph a = build_graph(spec);
    const BuiltGraph b = build_graph(spec);
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
    for (NodeId v = 0; v < a.graph.num_nodes(); ++v) {
      const auto na = a.graph.neighbors(v);
      const auto nb = b.graph.neighbors(v);
      ASSERT_EQ(std::vector<NodeId>(na.begin(), na.end()),
                std::vector<NodeId>(nb.begin(), nb.end()));
    }
  }
  EXPECT_THROW(build_graph(GraphSpec{"moebius", 10, 0, 0}), CheckFailure);
  EXPECT_THROW(build_graph(GraphSpec{"cycle", 0, 0, 0}), CheckFailure);
  EXPECT_THROW(build_graph(GraphSpec{"cycle", 10, 5, 0}), CheckFailure);
  EXPECT_THROW(build_graph(GraphSpec{"bipartite_regular", 201, 3, 0}),
               CheckFailure);
}

// The input each roster entry verifies on: the Δ-colorings need a forest
// and a degree Theorem 10's reserved palette admits, and sinkless needs an
// edge coloring and verifies at Δ=8 (it fails its verifier at Δ=3).
GraphSpec verifying_spec(const std::string& name) {
  if (name == "thm10" || name == "thm11") {
    return GraphSpec{"complete_tree", 1024, 16, 0};
  }
  if (name == "sinkless") return GraphSpec{"bipartite_regular", 512, 8, 3};
  return GraphSpec{"random_regular", 128, 4, 3};
}

TEST(ServeRegistry, AdaptersRunAndVerify) {
  for (const std::string& name : algorithm_roster()) {
    if (name == "spin") continue;  // never halts; SpinNeverCompletes
    const BuiltGraph built = build_graph(verifying_spec(name));
    const auto algo = make_algorithm(name);
    const LocalInput input = prepare_input(*algo, built, 5);
    EXPECT_EQ(input.has_ids(), !algo->randomized()) << name;
    const AlgoRun run = algo->run(input, 1 << 16, EngineOptions{}, {});
    EXPECT_TRUE(run.completed) << name;
    EXPECT_TRUE(run.verified) << name;
    EXPECT_GT(run.rounds, 0) << name;
    EXPECT_NE(run.output_digest, 0u) << name;
  }
}

// verify() is the entry's LCL verifier on the typed output: it accepts what
// execute() produced and rejects one corruption of each output kind.
TEST(ServeRegistry, VerifyRejectsCorruptedOutputs) {
  const auto corrupt_and_check = [](const std::string& name, auto&& corrupt) {
    const BuiltGraph built = build_graph(verifying_spec(name));
    const auto algo = make_algorithm(name);
    const LocalInput input = prepare_input(*algo, built, 5);
    AlgoRun run = algo->execute(input, 1 << 16, EngineOptions{}, {});
    ASSERT_TRUE(run.completed) << name;
    EXPECT_TRUE(algo->verify(input, {}, run)) << name;
    corrupt(built.graph, run);
    EXPECT_FALSE(algo->verify(input, {}, run)) << name;
  };
  const auto first = [](const std::vector<char>& flags) {
    const auto it = std::find(flags.begin(), flags.end(), 1);
    EXPECT_NE(it, flags.end());
    return static_cast<std::size_t>(it - flags.begin());
  };
  // A flipped MIS flag: the dropped node has no neighbor in the set.
  corrupt_and_check("luby", [&](const Graph&, AlgoRun& run) {
    run.flags[first(run.flags)] = 0;
  });
  // A dropped matching edge: both endpoints are free and adjacent.
  corrupt_and_check("matching_det", [&](const Graph&, AlgoRun& run) {
    run.flags[first(run.flags)] = 0;
  });
  // A color clash: node 0 takes its first neighbor's color.
  for (const char* name : {"greedy", "thm10"}) {
    corrupt_and_check(name, [](const Graph& g, AlgoRun& run) {
      run.colors[0] = run.colors[static_cast<std::size_t>(g.neighbors(0)[0])];
    });
  }
  // A sink: every edge at node 0 points into it.
  corrupt_and_check("sinkless", [](const Graph& g, AlgoRun& run) {
    for (const EdgeId e : g.incident_edges(0)) {
      run.orient[static_cast<std::size_t>(e)] =
          g.endpoints(e).first == 0 ? std::int8_t{-1} : std::int8_t{1};
    }
  });
}

// Output digests and round counts of every registry entry on small fixed
// inputs, recorded before the engine's second (generic) round loop was
// deleted. The one remaining loop must reproduce them bit for bit.
TEST(ServeRegistry, OutputDigestsArePinned) {
  struct Pin {
    const char* algo;
    GraphSpec spec;
    int max_rounds;
    int rounds;
    std::uint64_t digest;
  };
  const GraphSpec regular{"random_regular", 4096, 4, 3};
  const GraphSpec colored{"bipartite_regular", 4096, 3, 7};
  const GraphSpec tree{"complete_tree", 4096, 16, 0};
  const std::vector<Pin> pins = {
      {"luby", regular, 1 << 16, 7, 0x20c088745c9e434fULL},
      {"ghaffari", regular, 1 << 16, 28, 0x0d88461921e57a82ULL},
      {"matching_rand", regular, 1 << 16, 8, 0x53acd95941c41faeULL},
      {"matching_det", regular, 1 << 16, 16, 0x6bc1cf2e0733b338ULL},
      {"plus_one", regular, 1 << 16, 16, 0xb67f15870cb45802ULL},
      {"greedy", regular, 1 << 16, 12, 0x5f213cc46dd60f60ULL},
      {"sinkless", colored, 1 << 14, 7, 0x293f4b9e519eae1dULL},
      {"spin", regular, 25, 25, 0x240b87608ecfced5ULL},
      {"thm10", tree, 1 << 16, 24, 0x406f4d95e3e7a1faULL},
      {"thm11", tree, 1 << 16, 10, 0x42533280152186a0ULL},
  };
  ASSERT_EQ(pins.size(), algorithm_roster().size());
  for (const Pin& pin : pins) {
    const BuiltGraph built = build_graph(pin.spec);
    const auto algo = make_algorithm(pin.algo);
    const LocalInput input = prepare_input(*algo, built, 5);
    const AlgoRun run = algo->run(input, pin.max_rounds, EngineOptions{}, {});
    EXPECT_EQ(run.rounds, pin.rounds) << pin.algo;
    EXPECT_EQ(run.output_digest, pin.digest)
        << pin.algo << " digest 0x" << std::hex << run.output_digest;
  }
}

TEST(ServeRegistry, SinklessNeedsEdgeLabels) {
  const auto algo = make_algorithm("sinkless");
  const BuiltGraph plain = build_graph(GraphSpec{"cycle", 32, 0, 0});
  EXPECT_THROW(prepare_input(*algo, plain, 1), CheckFailure);
  const BuiltGraph colored =
      build_graph(GraphSpec{"bipartite_regular", 64, 3, 1});
  const LocalInput input = prepare_input(*algo, colored, 1);
  EXPECT_FALSE(input.edge_labels.empty());
}

TEST(ServeRegistry, UnknownParamRejected) {
  const BuiltGraph built = build_graph(GraphSpec{"cycle", 32, 0, 0});
  const auto algo = make_algorithm("luby");
  const LocalInput input = prepare_input(*algo, built, 1);
  KV params;
  params["pallete"] = "4";
  EXPECT_THROW(algo->run(input, 100, EngineOptions{}, params), CheckFailure);
}

// Integer params are range-checked before they are narrowed to int.
TEST(ServeRegistry, IntegerParamsOutOfRangeRejected) {
  const BuiltGraph tree = build_graph(GraphSpec{"complete_tree", 1024, 16, 0});
  const auto thm10 = make_algorithm("thm10");
  const LocalInput input = prepare_input(*thm10, tree, 1);
  for (const char* bad : {"4294967297", "0", "-1"}) {
    KV params;
    params["max_iterations"] = bad;
    EXPECT_THROW(thm10->run(input, 1 << 16, EngineOptions{}, params),
                 CheckFailure)
        << bad;
  }
  KV params;
  params["palette"] = "x";
  EXPECT_THROW(kv_int(params, "palette", 0, 0, 64), CheckFailure);
  params["palette"] = "65";
  EXPECT_THROW(kv_int(params, "palette", 0, 0, 64), CheckFailure);
  params["palette"] = "64";
  EXPECT_EQ(kv_int(params, "palette", 0, 0, 64), 64);
  EXPECT_EQ(kv_int(params, "absent", 7, 0, 64), 7);
}

TEST(ServeRegistry, SpinNeverCompletes) {
  const BuiltGraph built = build_graph(GraphSpec{"cycle", 64, 0, 0});
  const auto algo = make_algorithm("spin");
  const LocalInput input = prepare_input(*algo, built, 1);
  const AlgoRun run = algo->run(input, 25, EngineOptions{}, {});
  EXPECT_EQ(run.rounds, 25);
  EXPECT_FALSE(run.completed);
  EXPECT_FALSE(run.verified);
}

// --------------------------------------------------------------------------
// Budgets in the engine

TEST(ServeBudget, ChargePriorityAndStopLatching) {
  RunBudget budget;
  EXPECT_EQ(budget.charge(10), BudgetStop::kNone);
  EXPECT_FALSE(budget.stopped());

  budget.step_limit = 15;
  budget.request_cancel();
  // Cancel outranks the step limit even though both fired.
  EXPECT_EQ(budget.charge(10), BudgetStop::kCancelled);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kCancelled);
  EXPECT_STREQ(budget_stop_name(budget.stop_reason()), "cancelled");
}

TEST(ServeBudget, DeadlineUsesInjectedSteadyTime) {
  g_fake_ms = 1000;
  RunBudget budget;
  budget.now = &fake_now;
  budget.deadline = fake_now() + std::chrono::milliseconds(500);
  EXPECT_EQ(budget.charge(0), BudgetStop::kNone);
  g_fake_ms = 1499;
  EXPECT_EQ(budget.charge(0), BudgetStop::kNone);
  g_fake_ms = 1500;
  EXPECT_EQ(budget.charge(0), BudgetStop::kDeadline);
}

// Runs "spin" on a 64-cycle with `opts` and returns (rounds, digest).
std::pair<int, std::uint64_t> run_spin(int max_rounds, EngineOptions opts) {
  const BuiltGraph built = build_graph(GraphSpec{"cycle", 64, 0, 0});
  const auto algo = make_algorithm("spin");
  const LocalInput input = prepare_input(*algo, built, 1);
  const AlgoRun run = algo->run(input, max_rounds, opts, {});
  return {run.rounds, run.output_digest};
}

TEST(ServeBudget, StepLimitStopsAtRoundBarrierUntorn) {
  // Stopping at the barrier means the partial state IS round r's state: a
  // budgeted run stopped after r rounds must match an un-budgeted run
  // capped at exactly r rounds, bit for bit — and that capped run must
  // match the naive reference engine capped the same way.
  const BuiltGraph built = build_graph(GraphSpec{"cycle", 64, 0, 0});
  testing::expect_matches_reference(
      prepare_input(*make_algorithm("spin"), built, 1),
      [] { return detail::SpinNode{}; }, 3);

  const auto [full_rounds, full_digest] = run_spin(3, EngineOptions{});
  ASSERT_EQ(full_rounds, 3);

  RunBudget budget;
  budget.step_limit = 3 * 64;  // spin keeps all 64 nodes active per round
  EngineOptions budgeted;
  budgeted.budget = &budget;
  const auto [rounds, digest] = run_spin(1 << 10, budgeted);
  EXPECT_EQ(rounds, 3);
  EXPECT_EQ(digest, full_digest);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kStepLimit);
  EXPECT_EQ(budget.steps.load(), 3u * 64u);
}

TEST(ServeBudget, PreTrippedBudgetRunsZeroRounds) {
  RunBudget budget;
  budget.request_cancel();
  EngineOptions opts;
  opts.budget = &budget;
  const auto [rounds, digest] = run_spin(100, opts);
  (void)digest;
  EXPECT_EQ(rounds, 0);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kCancelled);
}

TEST(ServeBudget, UntriggeredBudgetIsBitIdentical) {
  const BuiltGraph built = build_graph(GraphSpec{"random_regular", 128, 4, 3});
  const auto algo = make_algorithm("luby");
  const LocalInput input = prepare_input(*algo, built, 7);

  const AlgoRun plain = algo->run(input, 1 << 16, EngineOptions{}, {});
  ASSERT_TRUE(plain.completed);

  RunBudget budget;
  budget.step_limit = ~std::uint64_t{0};
  g_fake_ms = 0;
  budget.now = &fake_now;
  budget.deadline = fake_now() + std::chrono::hours(1);
  EngineOptions opts;
  opts.budget = &budget;
  const AlgoRun budgeted = algo->run(input, 1 << 16, opts, {});
  EXPECT_EQ(budgeted.output_digest, plain.output_digest);
  EXPECT_EQ(budgeted.rounds, plain.rounds);
  EXPECT_EQ(budget.stop_reason(), BudgetStop::kNone);
}

// --------------------------------------------------------------------------
// Memo keys

MemoFacts base_facts() {
  MemoFacts facts;
  facts.algorithm = "luby";
  facts.algo_version = 1;
  facts.graph = GraphSpec{"cycle", 64, 0, 0};
  facts.seed = 7;
  facts.max_rounds = 1 << 16;
  return facts;
}

TEST(ServeMemo, KeyCoversSemanticFactsOnly) {
  const MemoFacts base = base_facts();
  const std::string key = memo_key(base);
  EXPECT_EQ(memo_key(base_facts()), key);  // deterministic

  // Version bump invalidates: changed output for the same inputs must not
  // serve stale cache entries.
  MemoFacts bumped = base_facts();
  bumped.algo_version = 2;
  EXPECT_NE(memo_key(bumped), key);

  for (auto mutate : {+[](MemoFacts& f) { f.seed = 8; },
                      +[](MemoFacts& f) { f.max_rounds = 100; },
                      +[](MemoFacts& f) { f.graph.n = 65; },
                      +[](MemoFacts& f) { f.graph.seed = 1; },
                      +[](MemoFacts& f) { f.params["palette"] = "4"; },
                      +[](MemoFacts& f) { f.algorithm = "greedy"; }}) {
    MemoFacts changed = base_facts();
    mutate(changed);
    EXPECT_NE(memo_key(changed), key) << changed.canonical();
  }

  // The canonical string spells out every keyed fact — and no execution
  // knobs (threads/scheduler are absent by construction: canonical() is
  // total over MemoFacts, which has no such fields).
  const std::string canon = base.canonical();
  EXPECT_NE(canon.find("algo=luby"), std::string::npos);
  EXPECT_NE(canon.find("ver=1"), std::string::npos);
  EXPECT_NE(canon.find("max_rounds="), std::string::npos);
  EXPECT_EQ(canon.find("thread"), std::string::npos);
}

TEST(ServeMemo, RoundTripAndCorruptionIsMiss) {
  const ArtifactStore store(temp_dir("memo"));
  const ResultMemo memo(&store);
  const MemoFacts facts = base_facts();
  EXPECT_FALSE(memo.lookup(facts).has_value());

  const std::string record = "{\"bench\":\"serve\",\"rounds\":5}";
  memo.insert(facts, record);
  const auto hit = memo.lookup(facts);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, record);  // byte-identical

  // Flip a payload byte on disk: the frame checksum fails and the entry
  // degrades to a miss instead of serving corrupt bytes.
  const std::string path = store.path_for(memo_key(facts));
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -1, SEEK_END);
  std::fputc('X', f);
  std::fclose(f);
  EXPECT_FALSE(memo.lookup(facts).has_value());
}

// --------------------------------------------------------------------------
// JobServer end to end (in process)

bool is_done(const JsonValue& doc) { return doc.find("done") != nullptr; }

bool is_terminal(const JsonValue& doc) {
  return is_done(doc) || doc.find("error") != nullptr;
}

struct LineLog {
  std::mutex mu;
  std::condition_variable cv;  // signalled on every appended line
  std::vector<std::string> lines;
  std::vector<std::uint64_t> clients;  // clients[i]: the tag of lines[i]

  void record(const std::string& line, std::uint64_t client) {
    {
      std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
      clients.push_back(client);
    }
    cv.notify_all();
  }

  JobServer::Sink sink() {
    return [this](const std::string& line) { record(line, 0); };
  }

  JobServer::TaggedSink tagged_sink() {
    return [this](const std::string& line, std::uint64_t client) {
      record(line, client);
    };
  }

  // Responses mentioning `id`, parsed.
  std::vector<JsonValue> responses_for(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<JsonValue> out;
    for (const std::string& line : lines) {
      const JsonValue doc = json_parse(line);
      const JsonValue* jid = doc.find("id");
      if (jid != nullptr && jid->string == id) out.push_back(doc);
    }
    return out;
  }

  // The terminal (done/error) response for `id`; fails the test if absent.
  JsonValue terminal_for(const std::string& id) {
    for (const JsonValue& doc : responses_for(id)) {
      if (is_terminal(doc)) return doc;
    }
    ADD_FAILURE() << "no terminal response for " << id;
    return JsonValue{};
  }

  // Index into `lines` of the first response for `id` routed to `client`
  // that satisfies `pred`, or -1. Caller holds mu.
  template <typename Pred>
  int find_locked(const std::string& id, std::uint64_t client, Pred pred) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (clients[i] != client) continue;
      const JsonValue doc = json_parse(lines[i]);
      const JsonValue* jid = doc.find("id");
      if (jid != nullptr && jid->string == id && pred(doc)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  // Blocks until `client` holds a response for `id` satisfying `pred`, and
  // returns its index into `lines`.
  template <typename Pred>
  int wait_for(const std::string& id, std::uint64_t client, Pred pred) {
    std::unique_lock<std::mutex> lock(mu);
    int at = -1;
    cv.wait(lock, [&] { return (at = find_locked(id, client, pred)) >= 0; });
    return at;
  }

  // True when `client` holds a response for `id` satisfying `pred`.
  template <typename Pred>
  bool has(const std::string& id, std::uint64_t client, Pred pred) {
    std::lock_guard<std::mutex> lock(mu);
    return find_locked(id, client, pred) >= 0;
  }
};

std::string run_job_line(const std::string& id, const std::string& algo,
                         const std::string& extra = "", int seed = 7) {
  return "{\"op\":\"run\",\"id\":\"" + id + "\",\"algo\":\"" + algo +
         "\",\"graph\":{\"family\":\"cycle\",\"n\":512},\"seed\":" +
         std::to_string(seed) + extra + "}";
}

TEST(ServeServer, MixedBatchCompletesOnSharedPool) {
  LineLog log;
  ServerOptions options;
  options.workers = 3;
  options.store_dir = temp_dir("batch");
  JobServer server(options, log.sink());

  EXPECT_TRUE(server.handle_line(run_job_line("j1", "luby")));
  EXPECT_TRUE(server.handle_line(run_job_line("j2", "matching_rand")));
  EXPECT_TRUE(server.handle_line(run_job_line("j3", "plus_one")));
  server.drain();

  for (const std::string id : {"j1", "j2", "j3"}) {
    const JsonValue done = log.terminal_for(id);
    ASSERT_NE(done.find("done"), nullptr) << id;
    EXPECT_EQ(done.at("memo").as_string(), "miss") << id;
    EXPECT_FALSE(done.at("cancelled").boolean) << id;
    EXPECT_TRUE(done.at("record").at("verified").boolean) << id;
  }
  EXPECT_EQ(server.counter("serve.jobs_admitted"), 3.0);
  EXPECT_EQ(server.counter("serve.jobs_completed"), 3.0);
  EXPECT_EQ(server.counter("serve.memo_stores"), 3.0);
  EXPECT_GT(server.counter("serve.engine_rounds_total"), 0.0);
}

TEST(ServeServer, MemoHitReplaysRecordByteIdenticallyWithZeroRounds) {
  const std::string store_dir = temp_dir("replay");
  std::string first_record;
  {
    LineLog log;
    ServerOptions options;
    options.workers = 2;
    options.store_dir = store_dir;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("a", "luby"));
    server.drain();
    const JsonValue done = log.terminal_for("a");
    ASSERT_NE(done.find("done"), nullptr);
    // Recover the raw record bytes from the response line.
    std::lock_guard<std::mutex> lock(log.mu);
    for (const std::string& line : log.lines) {
      const auto pos = line.find("\"record\":");
      if (pos != std::string::npos && line.find("\"a\"") != std::string::npos) {
        first_record = line.substr(pos + 9, line.size() - pos - 9 - 1);
      }
    }
    ASSERT_FALSE(first_record.empty());
  }
  {
    // Fresh server, same store: the resubmission must be served entirely
    // from the memo — zero engine rounds — and re-emit the same bytes.
    LineLog log;
    ServerOptions options;
    options.workers = 2;
    options.store_dir = store_dir;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("a", "luby"));
    server.drain();
    const JsonValue done = log.terminal_for("a");
    EXPECT_EQ(done.at("memo").as_string(), "hit");
    EXPECT_EQ(server.counter("serve.engine_rounds_total"), 0.0);
    EXPECT_EQ(server.counter("serve.jobs_admitted"), 0.0);
    std::string second_record;
    {
      std::lock_guard<std::mutex> lock(log.mu);
      for (const std::string& line : log.lines) {
        const auto pos = line.find("\"record\":");
        if (pos != std::string::npos) {
          second_record = line.substr(pos + 9, line.size() - pos - 9 - 1);
        }
      }
    }
    EXPECT_EQ(second_record, first_record);
  }
}

// There is one engine loop, so the protocol has no engine-path switch: a
// run line still carrying the old "force_generic" field gets the standard
// unknown-field error and is never answered from the memo, even when the
// same job is memoized. no_memo opts out of lookup and insert.
TEST(ServeServer, MemoMissOnForceGenericAndNoMemoOptOut) {
  const std::string store_dir = temp_dir("keyed");
  ServerOptions options;
  options.workers = 1;
  options.store_dir = store_dir;
  {
    LineLog log;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("a", "luby"));
    server.drain();
  }
  {
    LineLog log;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("g", "luby", ",\"force_generic\":true"));
    server.drain();
    // Fields are validated before the id is read, so the error carries no
    // id, exactly as for any other unknown field.
    {
      std::lock_guard<std::mutex> lock(log.mu);
      ASSERT_EQ(log.lines.size(), 1u);
      const JsonValue reply = json_parse(log.lines[0]);
      EXPECT_EQ(reply.find("id"), nullptr);
      EXPECT_NE(reply.at("error").as_string().find(
                    "unknown request field \"force_generic\""),
                std::string::npos)
          << log.lines[0];
    }
    EXPECT_EQ(server.counter("serve.errors"), 1.0);
    EXPECT_EQ(server.counter("serve.jobs_admitted"), 0.0);
    EXPECT_EQ(server.counter("serve.memo_hits"), 0.0);
  }
  {
    LineLog log;
    JobServer server(options, log.sink());
    server.handle_line(run_job_line("c", "luby", ",\"no_memo\":true"));
    server.drain();
    EXPECT_EQ(log.terminal_for("c").at("memo").as_string(), "off");
    EXPECT_EQ(server.counter("serve.memo_hits"), 0.0);
  }
}

TEST(ServeServer, CancelMidRunFlagsRecordAndSkipsMemo) {
  const std::string store_dir = temp_dir("cancel");
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  options.store_dir = store_dir;
  JobServer server(options, log.sink());

  // spin never halts: without the cancel this job would run the full
  // 1<<20 rounds (~minutes). The cancel lands either while queued (0
  // rounds) or mid-run (stop at the next round barrier); both must yield
  // cancelled=true, an uncorrupted partial record, and no memo entry.
  server.handle_line(run_job_line("s", "spin", ",\"max_rounds\":1048576"));
  server.handle_line("{\"op\":\"cancel\",\"id\":\"s\"}");
  server.drain();

  const JsonValue done = log.terminal_for("s");
  ASSERT_NE(done.find("done"), nullptr);
  EXPECT_TRUE(done.at("cancelled").boolean);
  EXPECT_EQ(done.at("stop").as_string(), "cancelled");
  const JsonValue& rec = done.at("record");
  EXPECT_EQ(rec.at("metrics").at("cancelled").as_number(), 1.0);
  EXPECT_EQ(rec.at("metrics").at("completed").as_number(), 0.0);
  EXPECT_LT(rec.at("rounds").as_number(), 1048576.0);
  EXPECT_EQ(server.counter("serve.jobs_cancelled"), 1.0);
  EXPECT_EQ(server.counter("serve.memo_stores"), 0.0);
  EXPECT_EQ(server.counter("serve.cancels_delivered"), 1.0);
}

TEST(ServeServer, DeadlineExceededJobIsCancelledAtBarrier) {
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  g_fake_ms = 50'000;
  options.now = &fake_now;
  JobServer server(options, log.sink());

  // Deadline 300 simulated ms after admission. The engine's pre-loop check
  // passes (time has not advanced yet)… then the clock jumps past the
  // deadline before the job dequeues, so the first round-barrier check
  // trips. Either way the job terminates with stop=deadline.
  server.handle_line(run_job_line("d", "spin",
                                  ",\"max_rounds\":1048576,"
                                  "\"deadline_ms\":300"));
  g_fake_ms += 1000;
  server.drain();

  const JsonValue done = log.terminal_for("d");
  ASSERT_NE(done.find("done"), nullptr);
  EXPECT_TRUE(done.at("cancelled").boolean);
  EXPECT_EQ(done.at("stop").as_string(), "deadline");
  EXPECT_EQ(done.at("record").at("metrics").at("cancelled").as_number(),
            1.0);
}

TEST(ServeServer, RejectsProtocolAbuse) {
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  options.queue_limit = 1;
  JobServer server(options, log.sink());

  EXPECT_TRUE(server.handle_line("this is not json"));
  EXPECT_TRUE(server.handle_line("{\"op\":\"flood\"}"));
  EXPECT_TRUE(server.handle_line(run_job_line("x", "nope")));
  EXPECT_TRUE(
      server.handle_line(run_job_line("y", "luby", ",\"typo_field\":1")));
  server.drain();
  EXPECT_GE(server.counter("serve.errors"), 4.0);

  // Queue backpressure: with limit 1, a burst sheds load with an error
  // response instead of buffering unboundedly.
  server.handle_line(run_job_line("q1", "spin", ",\"max_rounds\":2000"));
  server.handle_line(run_job_line("q2", "spin", ",\"max_rounds\":2000"));
  server.handle_line(run_job_line("q3", "luby"));
  server.drain();
  EXPECT_GE(server.counter("serve.jobs_rejected"), 1.0);

  // Blank lines are ignored, not errors.
  const double errors = server.counter("serve.errors");
  EXPECT_TRUE(server.handle_line("   "));
  EXPECT_EQ(server.counter("serve.errors"), errors);
}

// Integers from the wire are range-checked before they are narrowed: a
// value that would wrap to a valid int (4294967297 to 1) or fall back to a
// default (palette -7 to Δ+1) is an error, not a silently different job.
TEST(ServeServer, RejectsIntegersThatWouldNarrow) {
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  JobServer server(options, log.sink());
  const std::vector<std::pair<std::string, std::string>> jobs = {
      {"max_rounds", run_job_line("max_rounds", "luby",
                                  ",\"max_rounds\":4294967297")},
      {"d", "{\"op\":\"run\",\"id\":\"d\",\"algo\":\"luby\",\"graph\":"
            "{\"family\":\"random_regular\",\"n\":64,\"d\":4294967299}}"},
      {"step_limit", run_job_line("step_limit", "luby", ",\"step_limit\":-1")},
      {"palette", run_job_line("palette", "plus_one",
                               ",\"params\":{\"palette\":\"4294967300\"}")},
      {"palette_neg", run_job_line("palette_neg", "plus_one",
                                   ",\"params\":{\"palette\":\"-7\"}")},
      {"phase1", run_job_line("phase1", "ghaffari",
                              ",\"params\":{\"phase1_iterations\":"
                              "\"4294967297\"}")},
  };
  for (const auto& [id, line] : jobs) server.handle_line(line);
  server.drain();
  for (const auto& [id, line] : jobs) {
    const JsonValue doc = log.terminal_for(id);
    const JsonValue* error = doc.find("error");
    ASSERT_NE(error, nullptr) << id << ": " << line;
    EXPECT_NE(error->string.find("outside"), std::string::npos)
        << id << ": " << error->string;
  }
}

// The pipe transport's backpressure: waiting for room between lines turns a
// burst past the queue limit into queued work instead of rejections.
TEST(ServeServer, WaitForRoomAdmitsABurstPastTheLimit) {
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  options.queue_limit = 2;
  JobServer server(options, log.sink());
  for (int i = 0; i < 12; ++i) {
    server.handle_line(run_job_line("w" + std::to_string(i), "spin",
                                    ",\"max_rounds\":500"));
    server.wait_for_room();
  }
  server.drain();
  EXPECT_EQ(server.counter("serve.jobs_rejected"), 0.0);
  EXPECT_EQ(server.counter("serve.jobs_completed"), 12.0);
}

// A request that fails to parse is answered with the check's message only:
// never the checked expression or the source path of the check.
TEST(ServeServer, ParseErrorsCarryNoSourceInternals) {
  LineLog log;
  ServerOptions options;
  options.workers = 1;
  JobServer server(options, log.sink());
  EXPECT_TRUE(server.handle_line(std::string(4096, ' ') + "{"));
  EXPECT_TRUE(server.handle_line("{\"op\":\"run\""));
  server.drain();
  std::lock_guard<std::mutex> lock(log.mu);
  ASSERT_EQ(log.lines.size(), 2u);
  for (const std::string& line : log.lines) {
    const std::string error = json_parse(line).at("error").as_string();
    EXPECT_FALSE(error.empty()) << line;
    EXPECT_EQ(error.find("CKP_CHECK"), std::string::npos) << line;
    EXPECT_EQ(error.find(".cpp"), std::string::npos) << line;
    EXPECT_EQ(error.find('/'), std::string::npos) << line;
  }
}

TEST(ServeServer, MultiClientRoutesResponsesByTag) {
  // Two transport threads share ONE server (one queue, one memo, one worker
  // pool) and interleave submissions. Every response must come back tagged
  // with the client whose request earned it — cross-client leakage would
  // show a j* line under client 2 or a k* line under client 1.
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::string>> tagged;
  ServerOptions options;
  options.workers = 3;
  options.store_dir = temp_dir("multi");
  JobServer server(options,
                   JobServer::TaggedSink(
                       [&](const std::string& line, std::uint64_t client) {
                         std::lock_guard<std::mutex> lock(mu);
                         tagged.emplace_back(client, line);
                       }));

  // Every job has its own seed, so none can be answered from the memo by
  // another that finished first: all 8 run on the engine.
  auto client = [&](std::uint64_t tag, const std::string& prefix) {
    for (int i = 0; i < 4; ++i) {
      const std::string id = prefix + std::to_string(i);
      EXPECT_TRUE(server.handle_line(
          run_job_line(id, i % 2 == 0 ? "luby" : "plus_one", "",
                       static_cast<int>(tag) * 10 + i),
          tag));
    }
    EXPECT_TRUE(server.handle_line("{\"op\":\"stats\"}", tag));
  };
  std::thread c1(client, 1, "j");
  std::thread c2(client, 2, "k");
  c1.join();
  c2.join();
  server.drain();

  // Each client sees exactly its own traffic: 4 queued + 4 done + 1 stats.
  int done1 = 0, done2 = 0, stats1 = 0, stats2 = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [tag, line] : tagged) {
      ASSERT_TRUE(tag == 1 || tag == 2) << line;
      const char expect_prefix = tag == 1 ? 'j' : 'k';
      const JsonValue doc = json_parse(line);
      if (doc.find("stats") != nullptr) {
        (tag == 1 ? stats1 : stats2)++;
        continue;
      }
      const JsonValue* jid = doc.find("id");
      ASSERT_NE(jid, nullptr) << line;
      EXPECT_EQ(jid->string[0], expect_prefix) << "leak: " << line;
      if (doc.find("done") != nullptr) (tag == 1 ? done1 : done2)++;
      ASSERT_EQ(doc.find("error"), nullptr) << line;
    }
  }
  EXPECT_EQ(done1, 4);
  EXPECT_EQ(done2, 4);
  EXPECT_EQ(stats1, 1);
  EXPECT_EQ(stats2, 1);
  EXPECT_EQ(server.counter("serve.jobs_completed"), 8.0);
}

TEST(ServeServer, ShutdownDrainsAndAnswers) {
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  JobServer server(options, log.sink());
  server.handle_line(run_job_line("z", "luby"));
  EXPECT_FALSE(server.handle_line("{\"op\":\"shutdown\"}"));
  // Shutdown drained first: the job's terminal response precedes the ack.
  ASSERT_NE(log.terminal_for("z").find("done"), nullptr);
  std::lock_guard<std::mutex> lock(log.mu);
  EXPECT_NE(log.lines.back().find("\"shutdown\":true"), std::string::npos);
}

// A spin job that runs ~3 s in an optimized build: still running long after
// the short jobs beside it finish, yet bounded so that a server that makes
// the short jobs wait behind it fails the test instead of hanging it.
const std::string kLongSpin = ",\"max_rounds\":500000";

// The real steady clock, counting its reads. A job with a deadline reads it
// at every round barrier, so a growing count shows the job running rounds.
std::atomic<std::int64_t> g_clock_reads{0};
SteadyTime counting_now() {
  g_clock_reads.fetch_add(1);
  return SteadyClock::now();
}

// Admits the long spin job `id` on a server built with now = counting_now
// and returns once it has run about 1000 rounds. Its deadline is ~11 days
// away: it exists only to make the budget read the clock.
void start_long_spin(JobServer& server, const std::string& id) {
  const std::int64_t before = g_clock_reads.load();
  server.handle_line(run_job_line(
      id, "spin", kLongSpin + ",\"deadline_ms\":1000000000"));
  while (g_clock_reads.load() < before + 1000) std::this_thread::yield();
}

TEST(ServeServer, ShortJobOvertakesLongOne) {
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  options.now = &counting_now;
  JobServer server(options, log.sink());

  start_long_spin(server, "spin");
  server.handle_line(run_job_line("short", "luby"));
  const int short_at = log.wait_for("short", 0, is_terminal);
  server.handle_line("{\"op\":\"cancel\",\"id\":\"spin\"}");
  const int spin_at = log.wait_for("spin", 0, is_terminal);
  // The idle worker took the short job at once: it ended while spin ran.
  EXPECT_LT(short_at, spin_at);

  const JsonValue short_done = log.terminal_for("short");
  ASSERT_TRUE(is_done(short_done));
  EXPECT_TRUE(short_done.at("record").at("verified").boolean);
  const JsonValue spin_done = log.terminal_for("spin");
  ASSERT_TRUE(is_done(spin_done));
  EXPECT_TRUE(spin_done.at("cancelled").boolean);
  EXPECT_EQ(spin_done.at("stop").as_string(), "cancelled");
}

TEST(ServeServer, FinishedJobFreesItsQueueSlot) {
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  options.queue_limit = 2;
  options.now = &counting_now;
  JobServer server(options, log.sink());

  start_long_spin(server, "spin");
  server.handle_line(run_job_line("short", "luby"));
  log.wait_for("short", 0, is_terminal);
  EXPECT_FALSE(log.has("spin", 0, is_terminal))
      << "short job waited behind spin";

  // One job is unfinished (spin), so limit 2 has room for one more.
  server.handle_line(run_job_line("next", "luby", "", 8));
  const std::vector<JsonValue> next = log.responses_for("next");
  ASSERT_FALSE(next.empty());
  EXPECT_NE(next.front().find("queued"), nullptr) << "next was rejected";

  server.handle_line("{\"op\":\"cancel\",\"id\":\"spin\"}");
  server.drain();
  EXPECT_TRUE(log.terminal_for("spin").at("cancelled").boolean);
  EXPECT_TRUE(is_done(log.terminal_for("next")));
  EXPECT_EQ(server.counter("serve.jobs_rejected"), 0.0);
}

TEST(ServeServer, QueuedLinePrecedesTerminalLine) {
  LineLog log;
  ServerOptions options;
  options.workers = 4;
  JobServer server(options, log.sink());
  constexpr int kJobs = 32;
  for (int i = 0; i < kJobs; ++i) {
    server.handle_line(
        run_job_line("q" + std::to_string(i), "luby", "", 100 + i));
  }
  server.drain();
  // An idle worker pops a job the moment it is queued, yet its terminal
  // line never overtakes the job's "queued" acknowledgement.
  for (int i = 0; i < kJobs; ++i) {
    const std::vector<JsonValue> replies =
        log.responses_for("q" + std::to_string(i));
    ASSERT_EQ(replies.size(), 2u) << i;
    EXPECT_NE(replies[0].find("queued"), nullptr) << i;
    EXPECT_TRUE(is_done(replies[1])) << i;
  }
}

TEST(ServeServer, EngineThreadsApplyOnlyWithOneWorker) {
  // Runs one luby job with engine_threads=2 and returns the shared pool's
  // job-count delta and the job's output digest.
  auto run_one = [](int workers) {
    LineLog log;
    ServerOptions options;
    options.workers = workers;
    options.engine_threads = 2;
    const std::uint64_t before = shared_pool_stats().jobs;
    {
      JobServer server(options, log.sink());
      server.handle_line(run_job_line("t", "luby"));
      server.drain();
    }
    const std::uint64_t pool_jobs = shared_pool_stats().jobs - before;
    const JsonValue done = log.terminal_for("t");
    EXPECT_TRUE(is_done(done)) << workers;
    const JsonValue& metrics = done.at("record").at("metrics");
    return std::make_pair(pool_jobs,
                          std::make_pair(metrics.at("digest_hi").as_number(),
                                         metrics.at("digest_lo").as_number()));
  };
  const auto [one_worker_jobs, one_worker_digest] = run_one(1);
  const auto [two_worker_jobs, two_worker_digest] = run_one(2);
  EXPECT_GT(one_worker_jobs, 0u) << "workers=1 ran rounds on one thread";
  EXPECT_EQ(two_worker_jobs, 0u) << "workers=2 ran rounds on the pool";
  EXPECT_EQ(one_worker_digest, two_worker_digest);
}

TEST(ServeServer, SameIdFromTwoClientsIsIndependent) {
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  JobServer server(options, log.tagged_sink());
  const std::string cancel_long = "{\"op\":\"cancel\",\"id\":\"long\"}";

  server.handle_line(run_job_line("long", "spin", kLongSpin), 1);
  server.handle_line(run_job_line("long", "spin", kLongSpin), 2);
  // Admission answers synchronously, so both replies are already logged.
  const auto queued = [](const JsonValue& doc) {
    return doc.find("queued") != nullptr;
  };
  ASSERT_TRUE(log.has("long", 1, queued));
  ASSERT_TRUE(log.has("long", 2, queued))
      << "client 2's \"long\" was rejected";

  // A duplicate id from the same client is still an error.
  server.handle_line(run_job_line("long", "luby"), 1);
  const int dup = log.wait_for("long", 1, [](const JsonValue& doc) {
    return doc.find("error") != nullptr;
  });
  {
    std::lock_guard<std::mutex> lock(log.mu);
    EXPECT_NE(log.lines[static_cast<std::size_t>(dup)].find(
                  "job id already in flight"),
              std::string::npos);
  }

  // Client 2's cancel stops client 2's job and only that one.
  server.handle_line(cancel_long, 2);
  log.wait_for("long", 2, is_done);
  EXPECT_FALSE(log.has("long", 1, is_done))
      << "client 2's cancel reached client 1's job";
  server.handle_line(cancel_long, 1);
  log.wait_for("long", 1, is_done);

  for (const std::uint64_t client : {1, 2}) {
    std::lock_guard<std::mutex> lock(log.mu);
    const auto delivered = [](const JsonValue& doc) {
      const JsonValue* d = doc.find("cancel_delivered");
      return d != nullptr && d->boolean;
    };
    EXPECT_GE(log.find_locked("long", client, delivered), 0) << client;
    const int at = log.find_locked("long", client, is_done);
    ASSERT_GE(at, 0) << client;
    const JsonValue done = json_parse(log.lines[static_cast<std::size_t>(at)]);
    EXPECT_TRUE(done.at("cancelled").boolean) << client;
    EXPECT_EQ(done.at("stop").as_string(), "cancelled") << client;
  }
  EXPECT_EQ(server.counter("serve.cancels_delivered"), 2.0);
}

TEST(ServeServer, QueueWaitAndRunHistogramsCountExecutedJobsOnly) {
  LineLog log;
  ServerOptions options;
  options.workers = 2;
  options.store_dir = temp_dir("histograms");
  JobServer server(options, log.sink());

  constexpr int kExecuted = 3;
  constexpr int kHits = 2;
  for (int i = 0; i < kExecuted; ++i) {
    server.handle_line(
        run_job_line("run" + std::to_string(i), "luby", "", 20 + i));
  }
  server.drain();
  // Same facts under new ids: answered from the memo, never executed.
  for (int i = 0; i < kHits; ++i) {
    server.handle_line(
        run_job_line("hit" + std::to_string(i), "luby", "", 20 + i));
  }
  server.drain();
  EXPECT_EQ(server.counter("serve.memo_hits"), static_cast<double>(kHits));

  server.handle_line("{\"op\":\"stats\"}");
  JsonValue stats;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    stats = json_parse(log.lines.back());
  }
  const JsonValue& histograms = stats.at("stats").at("histograms");
  for (const char* name : {"serve.queue_wait_s", "serve.run_s"}) {
    const JsonValue* h = histograms.find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->at("count").as_number(), static_cast<double>(kExecuted))
        << name;
    EXPECT_GE(h->at("min").as_number(), 0.0) << name;
  }
}

}  // namespace
}  // namespace ckp
