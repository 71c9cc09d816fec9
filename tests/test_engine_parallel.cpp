// Bit-identical parallel execution: run_local with any thread count and
// either scheduler must reproduce the naive reference engine
// (tests/reference_engine.hpp) exactly — states, round counts, halting —
// and the sequential run's halt pattern and observer view. Exercises DetLOCAL and
// RandLOCAL algorithms over trees, cycles, Ramanujan graphs, and random
// regular graphs, the topologies the paper's experiments sweep.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "algo/mis_luby.hpp"
#include "graph/generators.hpp"
#include "graph/ramanujan.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_mis.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"
#include "obs/observer.hpp"
#include "reference_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ckp {
namespace {

// DetLOCAL fixture: flood the maximum ID, halt after two stable exchanges.
// Nodes halt at staggered rounds, so the active-list compaction and the
// halted-refresh bookkeeping both get exercised.
struct MaxFlood {
  struct State {
    std::uint64_t best = 0;
    int stable_rounds = 0;
    bool operator==(const State&) const = default;
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

// RandLOCAL fixture: every round takes a keyed draw and mixes neighbor
// values; a node halts when its draw clears a rising threshold, so the halt
// pattern is random and a draw keyed on the wrong node or round would change
// both states and halt rounds.
struct RandomDrift {
  struct State {
    std::uint64_t acc = 0;
    int round = 0;
    bool operator==(const State&) const = default;
  };

  State init(const NodeEnv& env) { return {env.draw(0), 0}; }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    std::uint64_t acc = self.acc;
    for (const State* nb : nbrs) acc ^= nb->acc * 0x9e3779b97f4a7c15ULL;
    acc += env.draw(0);
    self.acc = acc;
    ++self.round;
    // Halting probability rises with the round; all nodes stop by round ~64.
    return (acc & 63u) < static_cast<std::uint64_t>(self.round);
  }
};

template <typename A>
void expect_same_run(const EngineResult<A>& a, const EngineResult<A>& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.all_halted, b.all_halted);
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    EXPECT_TRUE(a.states[i] == b.states[i]) << "state mismatch at node " << i;
  }
}

std::vector<Graph> fixture_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(make_complete_tree(600, 4));
  graphs.push_back(make_cycle(500));
  graphs.push_back(make_lps_ramanujan(5, 13).graph);
  Rng rng(0xF157);
  graphs.push_back(make_random_regular(512, 6, rng));
  return graphs;
}

TEST(EngineParallel, DetAlgorithmBitIdenticalAcrossThreadCounts) {
  for (const Graph& g : fixture_graphs()) {
    const NodeId n = g.num_nodes();
    Rng rng(0xD37 + static_cast<std::uint64_t>(n));
    LocalInput in;
    in.graph = &g;
    in.ids = random_ids(n, 24, rng);
    testing::expect_matches_reference(in, [] { return MaxFlood{}; }, 2000);
  }
}

TEST(EngineParallel, RandAlgorithmBitIdenticalAcrossThreadCounts) {
  for (const Graph& g : fixture_graphs()) {
    LocalInput in;
    in.graph = &g;
    in.seed = 0xA11CE;
    RandomDrift algo;
    EXPECT_TRUE(testing::run_reference(in, algo, 200).all_halted);
    testing::expect_matches_reference(in, [] { return RandomDrift{}; }, 200);
  }
}

TEST(EngineParallel, TruncatedRunsMatchToo) {
  const Graph g = make_complete_tree(400, 3);
  LocalInput in;
  in.graph = &g;
  in.seed = 99;
  RandomDrift algo;
  EXPECT_FALSE(testing::run_reference(in, algo, 5).all_halted);
  testing::expect_matches_reference(in, [] { return RandomDrift{}; }, 5);
}

TEST(EngineParallel, RealAlgorithmUnderGlobalThreadDefault) {
  Rng rng(0x3A);
  const Graph g = make_random_regular(400, 5, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 7;
  const auto seq = mis_luby(in);
  set_default_engine_threads(4);
  const auto par = mis_luby(in);
  set_default_engine_threads(1);
  EXPECT_EQ(seq.rounds, par.rounds);
  EXPECT_EQ(seq.in_set, par.in_set);
  EXPECT_TRUE(verify_mis(g, par.in_set).ok);
}

// Observer fixture recording everything the engine reports.
class RecordingObserver : public EngineObserver {
 public:
  std::vector<RoundStats> rounds;
  std::vector<std::pair<NodeId, int>> halts;
  RunStats run;
  int run_ends = 0;

  void on_round_end(const RoundStats& stats) override {
    rounds.push_back(stats);
  }
  void on_node_halt(NodeId v, int round) override {
    halts.emplace_back(v, round);
  }
  void on_run_end(const RunStats& stats) override {
    run = stats;
    ++run_ends;
  }
};

TEST(EngineParallel, ObserverStatsMergeIdenticallyAcrossThreadCounts) {
  const Graph g = make_complete_tree(500, 4);
  LocalInput in;
  in.graph = &g;
  in.seed = 0x0B5;

  RandomDrift seq_algo;
  RecordingObserver seq_obs;
  const auto seq = run_local(in, seq_algo, 200, &seq_obs, 1);
  ASSERT_TRUE(seq.all_halted);

  RandomDrift par_algo;
  RecordingObserver par_obs;
  const auto par = run_local(in, par_algo, 200, &par_obs, 4);
  expect_same_run(seq, par);

  // Halt events: same nodes, same rounds, same order (ascending node order
  // within each round, by the chunk-merge contract).
  EXPECT_EQ(seq_obs.halts, par_obs.halts);

  // Per-round stats agree on everything except wall time and partitioning.
  ASSERT_EQ(seq_obs.rounds.size(), par_obs.rounds.size());
  for (std::size_t i = 0; i < seq_obs.rounds.size(); ++i) {
    const RoundStats& s = seq_obs.rounds[i];
    const RoundStats& p = par_obs.rounds[i];
    EXPECT_EQ(s.round, p.round);
    EXPECT_EQ(s.n, p.n);
    EXPECT_EQ(s.active_nodes, p.active_nodes);
    EXPECT_EQ(s.halted_total, p.halted_total);
    EXPECT_EQ(s.state_copies, p.state_copies);
    EXPECT_EQ(s.threads, 1);
    EXPECT_EQ(p.threads, 4);
    EXPECT_EQ(s.chunk_seconds.size(), 1u);
    EXPECT_EQ(p.chunk_seconds.size(), 4u);
    EXPECT_GE(p.max_chunk_seconds(), 0.0);
  }
  EXPECT_EQ(par_obs.run.threads, 4);
  EXPECT_EQ(seq_obs.run.threads, 1);
  EXPECT_EQ(par_obs.run_ends, 1);
  EXPECT_EQ(seq_obs.run.rounds, par_obs.run.rounds);

  // Halt totals line up with the per-round telemetry.
  EXPECT_EQ(par_obs.halts.size(), static_cast<std::size_t>(g.num_nodes()));
  EXPECT_EQ(par_obs.rounds.back().halted_total, g.num_nodes());
}

// The engine degrades to sequential inside a parallel_for body (no nested
// parallelism) and still produces identical results.
TEST(EngineParallel, NestedRunsDegradeToSequentialAndMatch) {
  const Graph g = make_cycle(300);
  LocalInput in;
  in.graph = &g;
  in.seed = 5;
  RandomDrift outer_algo;
  const auto expected = run_local(in, outer_algo, 200, nullptr, 1);

  std::vector<EngineResult<RandomDrift>> results(4);
  shared_pool(4).parallel_for(0, 4, 4,
                              [&](std::int64_t lo, std::int64_t hi, int) {
                                for (std::int64_t i = lo; i < hi; ++i) {
                                  RandomDrift algo;
                                  results[static_cast<std::size_t>(i)] =
                                      run_local(in, algo, 200, nullptr, 8);
                                }
                              });
  for (const auto& r : results) expect_same_run(expected, r);
}

}  // namespace
}  // namespace ckp
