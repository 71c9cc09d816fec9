// Engine observer hooks: firing discipline, zero-interference with the
// simulation, and the halted-only refresh optimization in run_local.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "graph/trees.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "reference_engine.hpp"

namespace ckp {
namespace {

// Flood the maximum ID; halts after two stable exchanges. Same fixture shape
// as test_local_engine so observer behavior is checked on a nontrivial
// multi-round run with staggered halting.
struct MaxFlood {
  struct State {
    std::uint64_t best = 0;
    int stable_rounds = 0;
  };

  State init(const NodeEnv& env) { return {env.id, 0}; }

  bool step(State& self, const NodeEnv&,
            std::span<const State* const> nbrs) {
    std::uint64_t best = self.best;
    for (const State* nb : nbrs) best = std::max(best, nb->best);
    if (best == self.best) {
      ++self.stable_rounds;
    } else {
      self.best = best;
      self.stable_rounds = 0;
    }
    return self.stable_rounds >= 2;
  }
};

class CountingObserver : public EngineObserver {
 public:
  int round_begins = 0;
  int round_ends = 0;
  int halts = 0;
  int run_ends = 0;
  std::vector<RoundStats> rounds;
  RunStats run;

  void on_round_begin(int round) override {
    ++round_begins;
    EXPECT_EQ(round, round_begins);  // 1-based, strictly sequential
  }
  void on_round_end(const RoundStats& stats) override {
    ++round_ends;
    EXPECT_EQ(stats.round, round_ends);
    rounds.push_back(stats);
  }
  void on_node_halt(NodeId, int round) override {
    ++halts;
    EXPECT_GE(round, 1);
  }
  void on_run_end(const RunStats& stats) override {
    ++run_ends;
    run = stats;
  }
};

LocalInput path_input(const Graph& g, const std::vector<std::uint64_t>& ids) {
  LocalInput in;
  in.graph = &g;
  in.ids = ids;
  return in;
}

TEST(EngineObserver, RoundEndFiresExactlyRoundsTimes) {
  const Graph g = make_path(9);
  const auto ids = sequential_ids(9);
  const LocalInput in = path_input(g, ids);
  MaxFlood algo;
  CountingObserver obs;
  const auto result = run_local(in, algo, 100, &obs);

  EXPECT_TRUE(result.all_halted);
  EXPECT_EQ(obs.round_ends, result.rounds);
  EXPECT_EQ(obs.round_begins, result.rounds);
  EXPECT_EQ(obs.halts, 9);     // every node halts exactly once
  EXPECT_EQ(obs.run_ends, 1);  // run summary delivered once

  EXPECT_EQ(obs.run.rounds, result.rounds);
  EXPECT_TRUE(obs.run.all_halted);
  EXPECT_EQ(obs.run.n, 9u);

  // Per-round invariants: active nodes shrink as nodes halt, the halted
  // total is monotone and ends at n, and the final round reports fraction 1.
  NodeId prev_halted = 0;
  for (const RoundStats& r : obs.rounds) {
    EXPECT_EQ(r.n, 9u);
    EXPECT_EQ(r.active_nodes, 9u - prev_halted);
    EXPECT_GE(r.halted_total, prev_halted);
    EXPECT_GE(r.state_copies, r.active_nodes);  // one copy per stepped node
    prev_halted = r.halted_total;
  }
  EXPECT_EQ(obs.rounds.back().halted_total, 9u);
  EXPECT_DOUBLE_EQ(obs.rounds.back().halted_fraction(), 1.0);
}

TEST(EngineObserver, TruncatedRunReportsNotAllHalted) {
  const Graph g = make_path(50);
  const auto ids = sequential_ids(50);
  const LocalInput in = path_input(g, ids);
  MaxFlood algo;
  CountingObserver obs;
  const auto result = run_local(in, algo, 5, &obs);
  EXPECT_FALSE(result.all_halted);
  EXPECT_EQ(result.rounds, 5);
  EXPECT_EQ(obs.round_ends, 5);
  EXPECT_FALSE(obs.run.all_halted);
}

TEST(EngineObserver, ObservedRunIsBitIdenticalToUnobserved) {
  const Graph g = make_complete_tree(60, 3);
  Rng rng(0x0B5);
  const auto ids = random_ids(60, 12, rng);
  const LocalInput in = path_input(g, ids);

  MaxFlood plain_algo;
  const auto plain = run_local(in, plain_algo, 100);

  MaxFlood observed_algo;
  CountingObserver obs;
  const auto observed = run_local(in, observed_algo, 100, &obs);

  EXPECT_EQ(plain.rounds, observed.rounds);
  EXPECT_EQ(plain.all_halted, observed.all_halted);
  ASSERT_EQ(plain.states.size(), observed.states.size());
  for (std::size_t i = 0; i < plain.states.size(); ++i) {
    EXPECT_EQ(plain.states[i].best, observed.states[i].best);
    EXPECT_EQ(plain.states[i].stable_rounds, observed.states[i].stable_rounds);
  }

  // nullptr observer takes the uninstrumented path and matches too.
  MaxFlood null_algo;
  const auto with_null = run_local(in, null_algo, 100,
                                   static_cast<EngineObserver*>(nullptr));
  EXPECT_EQ(with_null.rounds, plain.rounds);
}

// The engine refreshes only a halted node's stale scratch entry; the
// reference engine copies every state every round. They must agree.
TEST(Engine, HaltedOnlyRefreshMatchesFullCopyReference) {
  for (const int max_rounds : {3, 100}) {  // truncated and completed runs
    const Graph g = make_complete_tree(80, 3);
    Rng rng(0x0B6);
    const auto ids = random_ids(80, 12, rng);
    const LocalInput in = path_input(g, ids);

    MaxFlood engine_algo;
    const auto engine = run_local(in, engine_algo, max_rounds);
    MaxFlood ref_algo;
    const auto reference = testing::run_reference(in, ref_algo, max_rounds);

    EXPECT_EQ(engine.rounds, reference.rounds);
    EXPECT_EQ(engine.all_halted, reference.all_halted);
    ASSERT_EQ(engine.states.size(), reference.states.size());
    for (std::size_t i = 0; i < engine.states.size(); ++i) {
      EXPECT_EQ(engine.states[i].best, reference.states[i].best);
      EXPECT_EQ(engine.states[i].stable_rounds,
                reference.states[i].stable_rounds);
    }
  }
}

TEST(MetricsObserver, FoldsRunIntoRegistry) {
  const Graph g = make_path(9);
  const auto ids = sequential_ids(9);
  const LocalInput in = path_input(g, ids);
  MaxFlood algo;
  MetricsRegistry reg;
  MetricsObserver obs(&reg);
  const auto result = run_local(in, algo, 100, &obs);
  ASSERT_TRUE(result.all_halted);

  EXPECT_DOUBLE_EQ(reg.counter("engine.rounds"),
                   static_cast<double>(result.rounds));
  EXPECT_DOUBLE_EQ(reg.counter("engine.halts"), 9.0);
  EXPECT_GE(reg.counter("engine.steps"), 9.0);
  EXPECT_GE(reg.counter("engine.state_copies"), reg.counter("engine.steps"));
  EXPECT_DOUBLE_EQ(reg.gauge("engine.run_rounds"),
                   static_cast<double>(result.rounds));
  EXPECT_DOUBLE_EQ(reg.gauge("engine.all_halted"), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("engine.halted_fraction"), 1.0);

  const Histogram* h = reg.find_histogram("engine.active_nodes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->summary().count(), static_cast<std::size_t>(result.rounds));
  EXPECT_DOUBLE_EQ(h->summary().max(), 9.0);
}

}  // namespace
}  // namespace ckp
