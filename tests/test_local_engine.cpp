#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "graph/generators.hpp"
#include "graph/trees.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"
#include "local/trace.hpp"
#include "local/view_engine.hpp"
#include "obs/resource.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ckp {
namespace {

TEST(Ids, Sequential) {
  const auto ids = sequential_ids(5);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ids_unique(ids));
}

TEST(Ids, RandomUniqueAndBounded) {
  Rng rng(103);
  const auto ids = random_ids(100, 10, rng);
  EXPECT_TRUE(ids_unique(ids));
  for (auto id : ids) EXPECT_LT(id, 1024u);
  EXPECT_THROW(random_ids(100, 5, rng), CheckFailure);  // 32 < 100
}

TEST(Ids, BfsOrderIsPermutation) {
  const Graph g = make_complete_tree(50, 3);
  const auto ids = bfs_order_ids(g, 0);
  EXPECT_TRUE(ids_unique(ids));
  EXPECT_EQ(ids[0], 0u);  // root gets 0
  const auto rids = reverse_bfs_order_ids(g, 0);
  EXPECT_TRUE(ids_unique(rids));
  EXPECT_EQ(rids[0], 49u);
}

TEST(Ids, BfsOrderCoversDisconnected) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {3, 4}});
  const auto ids = bfs_order_ids(g, 3);
  EXPECT_TRUE(ids_unique(ids));
  EXPECT_EQ(ids[3], 0u);
}

TEST(Ids, BitLength) {
  EXPECT_EQ(id_bit_length({0}), 1);
  EXPECT_EQ(id_bit_length({0, 1, 2, 3}), 2);
  EXPECT_EQ(id_bit_length({1023}), 10);
  EXPECT_EQ(id_bit_length({1024}), 11);
}

// ids_unique takes a strictly-increasing fast path and sorts a copy
// otherwise; both must agree with a std::set oracle on every input shape.
TEST(Ids, UniqueMatchesSetOracle) {
  using Ids = std::vector<std::uint64_t>;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  auto oracle = [](const Ids& ids) {
    return std::set<std::uint64_t>(ids.begin(), ids.end()).size() ==
           ids.size();
  };
  const std::vector<Ids> cases = {
      {},                          // empty
      {42},                        // single
      {0, 1, 5, 9, 1000},          // strictly increasing
      {9, 7, 4, 2, 0},             // descending
      {3, 0, 8, 1, 6},             // unsorted unique
      {1, 2, 2, 3},                // adjacent duplicate
      {5, 1, 9, 1, 7},             // non-adjacent duplicate
      {0, 1, 2, 3, 0},             // duplicate of the first at the end
      {4, 4, 4, 4},                // all equal
      {kMax - 2, kMax - 1, kMax},  // increasing up to UINT64_MAX
      {kMax, 0, kMax - 1},         // unsorted around UINT64_MAX
      {0, kMax, kMax},             // duplicate UINT64_MAX
  };
  for (const Ids& ids : cases) {
    EXPECT_EQ(ids_unique(ids), oracle(ids)) << ::testing::PrintToString(ids);
  }

  // Random vectors over a small value range, so roughly half of them carry
  // a duplicate; every third one is sorted to exercise the fast path.
  Rng rng(0x1D5);
  int with_duplicates = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Ids ids(rng.next_below(40));
    for (auto& id : ids) id = rng.next_below(200);
    if (trial % 3 == 0) std::sort(ids.begin(), ids.end());
    const bool expected = oracle(ids);
    with_duplicates += expected ? 0 : 1;
    ASSERT_EQ(ids_unique(ids), expected) << ::testing::PrintToString(ids);
  }
  EXPECT_GT(with_duplicates, 30);
  EXPECT_LT(with_duplicates, 270);
}

// Sequential IDs, the input every DetLOCAL bench validates, never leave the
// allocation-free fast path.
TEST(Ids, UniqueOnSequentialIdsAllocatesNothing) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  const auto ids = sequential_ids(1 << 16);
  AssertNoAlloc guard("ids_unique(sequential_ids)");
  const bool unique = ids_unique(ids);
  guard.check();
  EXPECT_TRUE(unique);
}

TEST(LocalInput, ValidationCatchesErrors) {
  const Graph g = make_path(4);
  LocalInput in;
  EXPECT_THROW(in.validate(), CheckFailure);  // no graph
  in.graph = &g;
  EXPECT_NO_THROW(in.validate());
  in.ids = {1, 2, 3};  // wrong count
  EXPECT_THROW(in.validate(), CheckFailure);
  in.ids = {1, 2, 3, 3};  // duplicate
  EXPECT_THROW(in.validate(), CheckFailure);
  in.ids = {1, 2, 3, 4};
  EXPECT_NO_THROW(in.validate());
  in.declared_delta = 1;  // below true Δ=2
  EXPECT_THROW(in.validate(), CheckFailure);
  in.declared_delta = 5;
  EXPECT_NO_THROW(in.validate());
  in.edge_labels = {0, 1};  // wrong edge count (3 edges)
  EXPECT_THROW(in.validate(), CheckFailure);
}

TEST(LocalInput, EffectiveParameters) {
  const Graph g = make_star(5);
  LocalInput in;
  in.graph = &g;
  EXPECT_EQ(in.effective_n(), 5u);
  EXPECT_EQ(in.effective_delta(), 4);
  in.declared_n = 1000;
  in.declared_delta = 9;
  EXPECT_EQ(in.effective_n(), 1000u);
  EXPECT_EQ(in.effective_delta(), 9);
}

TEST(RoundLedger, SequentialAndParallel) {
  RoundLedger l;
  EXPECT_EQ(l.rounds(), 0);
  l.charge(3);
  l.charge();
  EXPECT_EQ(l.rounds(), 4);
  l.merge_max(7);
  l.merge_max(2);
  EXPECT_EQ(l.rounds(), 11);  // 4 + max(7,2) pending
  l.commit_parallel();
  EXPECT_EQ(l.rounds(), 11);
  l.charge(1);
  EXPECT_EQ(l.rounds(), 12);
  EXPECT_THROW(l.charge(-1), CheckFailure);
}

// A toy engine algorithm: flood the maximum ID. On a connected graph this
// takes exactly the eccentricity of the max-ID node.
struct MaxFlood {
  struct State {
    std::uint64_t best = 0;
    int stable_rounds = 0;
  };

  State init(const NodeEnv& env) { return {env.id, 0}; }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    (void)env;
    std::uint64_t best = self.best;
    for (const State* nb : nbrs) best = std::max(best, nb->best);
    if (best == self.best) {
      ++self.stable_rounds;
    } else {
      self.best = best;
      self.stable_rounds = 0;
    }
    // Without a diameter bound a node cannot locally detect stability; for
    // the test we stop after 2 stable exchanges (enough on these fixtures).
    return self.stable_rounds >= 2;
  }
};

TEST(Engine, FloodsMaximumId) {
  const Graph g = make_path(9);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(9);
  MaxFlood algo;
  const auto result = run_local(in, algo, 100);
  EXPECT_TRUE(result.all_halted);
  for (const auto& s : result.states) EXPECT_EQ(s.best, 8u);
  // Information from node 8 needs 8 hops to reach node 0, plus the stability
  // margin.
  EXPECT_GE(result.rounds, 8);
  EXPECT_LE(result.rounds, 12);
}

TEST(Engine, RespectsMaxRounds) {
  const Graph g = make_path(50);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(50);
  MaxFlood algo;
  const auto result = run_local(in, algo, 5);
  EXPECT_FALSE(result.all_halted);
  EXPECT_EQ(result.rounds, 5);
}

// A randomized algorithm must see distinct per-node draws.
struct DrawOnce {
  struct State {
    std::uint64_t value = 0;
  };
  State init(const NodeEnv& env) { return {env.draw(0)}; }
  bool step(State&, const NodeEnv&, std::span<const State* const>) {
    return true;
  }
};

// Records whether the node may draw (a DetLOCAL draw throws).
struct RngProbe {
  struct State {
    bool had_rng = false;
  };
  State init(const NodeEnv& env) {
    try {
      (void)env.draw(0);
      return {true};
    } catch (const CheckFailure&) {
      return {false};
    }
  }
  bool step(State&, const NodeEnv&, std::span<const State* const>) {
    return true;
  }
};

// Regression: RandLOCAL is defined by the absence of IDs, not by the seed.
// The engine used to treat any input with a nonzero seed as randomized and
// allocate n RNG streams a DetLOCAL algorithm could never legally use. Now
// no mode allocates per-node randomness at all.
TEST(Engine, DetInputWithNonzeroSeedGetsNoRngStreams) {
  const Graph g = make_path(6);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(6);
  in.seed = 12345;  // nonzero seed must not flip a DetLOCAL input to RandLOCAL
  RngProbe algo;
  const auto result = run_local(in, algo, 10);
  EXPECT_TRUE(result.all_halted);
  for (const auto& s : result.states) EXPECT_FALSE(s.had_rng);

  // The same program costs the same engine bytes in RandLOCAL: randomness
  // adds no per-node term.
  LocalInput rand_in = in;
  rand_in.ids.clear();
  RngProbe rand_algo;
  EXPECT_EQ(run_local(rand_in, rand_algo, 10).engine_bytes,
            result.engine_bytes);

  // And asking for randomness in DetLOCAL still fails loudly.
  DrawOnce bad_algo;
  EXPECT_THROW(run_local(in, bad_algo, 10), CheckFailure);
}

TEST(Engine, RandInputGetsRngStreamsEvenWithZeroSeed) {
  const Graph g = make_path(6);
  LocalInput in;
  in.graph = &g;  // no ids => RandLOCAL
  in.seed = 0;
  RngProbe algo;
  const auto result = run_local(in, algo, 10);
  for (const auto& s : result.states) EXPECT_TRUE(s.had_rng);
}

TEST(Engine, RandomStreamsDifferAcrossNodes) {
  const Graph g = make_complete(6);
  LocalInput in;
  in.graph = &g;
  in.seed = 77;
  DrawOnce algo;
  const auto result = run_local(in, algo, 10);
  std::set<std::uint64_t> values;
  for (const auto& s : result.states) values.insert(s.value);
  EXPECT_EQ(values.size(), 6u);
  // Re-running with the same seed reproduces the draws, and each one is the
  // draw a hand-built environment with the same key computes.
  DrawOnce algo2;
  const auto rerun = run_local(in, algo2, 10);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.states[i].value, rerun.states[i].value);
    NodeEnv env;
    env.index = static_cast<NodeId>(i);
    env.seed = 77;
    EXPECT_EQ(result.states[i].value, env.draw(0));
  }
}

// NodeEnv::draw is a pure function of (seed, index, round, k), and distinct
// keys give distinct values, also across consecutive seeds (mix_seed keyed
// the same way collides there: seed 0 round 0 draw 1 equals seed 1 round 2
// draw 0).
TEST(Engine, DrawIsAPureFunctionOfItsKey) {
  std::set<std::uint64_t> values;
  std::size_t keys = 0;
  for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL, 3ULL, 0x5EEDULL}) {
    for (NodeId v = 0; v < 64; ++v) {
      for (int round = 0; round <= 7; ++round) {
        for (std::uint64_t k = 0; k <= 3; ++k) {
          NodeEnv env;
          env.index = v;
          env.seed = seed;
          env.round = round;
          const std::uint64_t x = env.draw(k);
          NodeEnv twin;  // same key, otherwise unrelated fields
          twin.index = v;
          twin.seed = seed;
          twin.round = round;
          twin.degree = 9;
          twin.declared_n = 1000;
          EXPECT_EQ(twin.draw(k), x);
          values.insert(x);
          ++keys;
        }
      }
    }
  }
  EXPECT_EQ(values.size(), keys);
}

// draw_below stays in [0, bound), including a bound just over 2^63 where
// about half of all raw draws are rejected, and is uniform at a small bound
// (coarse χ² test: 5 degrees of freedom, 20.5 is the 0.1% critical value).
TEST(Engine, DrawBelowStaysInRangeAndIsUniform) {
  constexpr std::uint64_t kBins = 6;
  std::vector<double> counts(kBins, 0.0);
  const std::uint64_t huge = (1ULL << 63) + 1;
  int draws = 0;
  for (NodeId v = 0; v < 1000; ++v) {
    for (int round = 0; round < 10; ++round) {
      NodeEnv env;
      env.index = v;
      env.seed = 3;
      env.round = round;
      for (std::uint64_t k = 0; k < 6; ++k) {
        const std::uint64_t x = env.draw_below(k, kBins);
        ASSERT_LT(x, kBins);
        counts[x] += 1.0;
        ++draws;
      }
      EXPECT_LT(env.draw_below(6, huge), huge);
      EXPECT_EQ(env.draw_below(7, 1), 0u);
      EXPECT_EQ(env.draw_below(8, huge), env.draw_below(8, huge));
    }
  }
  const double expected = static_cast<double>(draws) / kBins;
  double chi2 = 0.0;
  for (const double c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 20.5);
  NodeEnv env;
  EXPECT_THROW(env.draw_below(0, 0), CheckFailure);
}

TEST(Engine, DetLocalNodeCannotDraw) {
  NodeEnv env;
  env.index = 3;
  env.seed = 12345;
  env.id = 3;
  EXPECT_THROW(env.draw(0), CheckFailure);
  EXPECT_THROW(env.draw_below(0, 4), CheckFailure);
}

TEST(ViewEngine, BallContentsAndCharging) {
  const Graph g = make_path(10);
  LocalInput in;
  in.graph = &g;
  ViewEngine ve(in);
  const auto view = ve.view(5, 2);
  EXPECT_EQ(view.sub.graph.num_nodes(), 5);  // nodes 3..7
  EXPECT_EQ(view.distance[static_cast<std::size_t>(view.center)], 0);
  EXPECT_EQ(ve.rounds(), 2);
  ve.view(0, 1);
  EXPECT_EQ(ve.rounds(), 2);  // max, not sum
  ve.charge_all(3);
  EXPECT_EQ(ve.rounds(), 5);
}

TEST(Trace, RecordsAndTotals) {
  Trace t;
  t.record("a", 3);
  t.record("b", 4, 99);
  EXPECT_EQ(t.total_rounds(), 7);
  EXPECT_EQ(t.phases().size(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("phase b"), std::string::npos);
}

}  // namespace
}  // namespace ckp
