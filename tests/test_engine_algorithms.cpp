// Tests for the additional strict-engine algorithm (leader election), the
// Margulis expander generator, and the generic ball checker.
#include <gtest/gtest.h>

#include "algo/leader_election.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/power.hpp"
#include "graph/trees.hpp"
#include "lcl/ball_checker.hpp"
#include "lcl/verify_coloring.hpp"
#include "lcl/verify_mis.hpp"
#include "local/ids.hpp"
#include "store/binary_io.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace ckp {
namespace {

TEST(LeaderElection, EveryoneAgreesOnMaxId) {
  Rng rng(2101);
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    if (connected_components(g).count != 1) continue;
    LocalInput in;
    in.graph = &g;
    in.ids = random_ids(g.num_nodes(), 32, rng);
    const auto r = elect_leader(in);
    ASSERT_TRUE(r.completed) << name;
    std::uint64_t expect = 0;
    for (auto id : in.ids) expect = std::max(expect, id);
    for (auto seen : r.leader_seen) EXPECT_EQ(seen, expect) << name;
    EXPECT_EQ(in.ids[static_cast<std::size_t>(r.leader)], expect) << name;
  }
}

TEST(LeaderElection, RoundsTrackDiameterWithTightMargin) {
  const Graph g = make_path(200);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(200);  // leader at the far end
  const auto r = elect_leader(in, /*stability_margin=*/200);
  ASSERT_TRUE(r.completed);
  // Information from node 199 reaches node 0 after 199 rounds, plus margin.
  EXPECT_GE(r.rounds, 199);
  EXPECT_LE(r.rounds, 199 + 201);
}

// Output digest recorded before the engine's second (generic) round loop was
// deleted; elect_leader was that loop's only production user. A margin far
// below the diameter halts nodes mid-flood, so leader_seen varies per node.
TEST(LeaderElection, OutputDigestIsPinned) {
  const Graph g = make_path(4096);
  Rng rng(0x1EAD);
  LocalInput in;
  in.graph = &g;
  in.ids = random_ids(g.num_nodes(), 32, rng);
  const auto r = elect_leader(in, /*stability_margin=*/6);
  const std::uint64_t digest = fnv1a64(std::string_view(
      reinterpret_cast<const char*>(r.leader_seen.data()),
      r.leader_seen.size() * sizeof(std::uint64_t)));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, 32);
  EXPECT_EQ(r.leader, 225);
  EXPECT_EQ(digest, 0x2cc69d568ee5adafULL) << "digest 0x" << std::hex << digest;
}

TEST(LeaderElection, RequiresIds) {
  const Graph g = make_path(3);
  LocalInput in;
  in.graph = &g;
  EXPECT_THROW(elect_leader(in), CheckFailure);
}

TEST(Margulis, ExpanderShape) {
  const Graph g = make_margulis(16);
  EXPECT_EQ(g.num_nodes(), 256);
  EXPECT_LE(g.max_degree(), 8);
  EXPECT_EQ(connected_components(g).count, 1);
  // Expander: tiny diameter. BFS from 0 must reach everything fast.
  const auto dist = bfs_distances(g, 0, 12);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(dist[static_cast<std::size_t>(v)], 0);
  }
}

TEST(Margulis, GrowsQuadratically) {
  for (NodeId m : {2, 5, 20}) {
    const Graph g = make_margulis(m);
    EXPECT_EQ(g.num_nodes(), m * m);
  }
}

TEST(BallChecker, ColoringAsBallPredicate) {
  // Proper coloring as a radius-1 ball predicate must agree with the fast
  // verifier on positive and negative cases across the zoo.
  Rng rng(2111);
  auto proper_ball = [](const LabeledBall& ball) {
    for (NodeId u : ball.sub->graph.neighbors(ball.center)) {
      if (ball.labels[static_cast<std::size_t>(u)] ==
          ball.labels[static_cast<std::size_t>(ball.center)]) {
        return false;
      }
    }
    return true;
  };
  const Graph g = make_cycle(12);
  const std::vector<int> good{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_TRUE(check_all_balls(g, 1, good, proper_ball).ok);
  std::vector<int> bad = good;
  bad[3] = bad[4];
  const auto fast = verify_coloring(g, bad, 3);
  const auto generic = check_all_balls(g, 1, bad, proper_ball);
  EXPECT_FALSE(fast.ok);
  EXPECT_FALSE(generic.ok);
}

TEST(BallChecker, MisAsBallPredicate) {
  auto mis_ball = [](const LabeledBall& ball) {
    const bool in = ball.labels[static_cast<std::size_t>(ball.center)] == 1;
    bool neighbor_in = false;
    for (NodeId u : ball.sub->graph.neighbors(ball.center)) {
      if (ball.labels[static_cast<std::size_t>(u)] == 1) neighbor_in = true;
    }
    return in ? !neighbor_in : neighbor_in;
  };
  Rng rng(2113);
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    LocalInput in;
    in.graph = &g;
    in.seed = 5;
    // Build a valid MIS via the library and cross-check with the generic
    // ball checker.
    std::vector<int> labels(static_cast<std::size_t>(g.num_nodes()), 0);
    {
      RoundLedger ledger;
      // MIS as labels via the zoo-stable deterministic route.
      const auto ids = random_ids(g.num_nodes(), 32, rng);
      // Greedy by id order (centralized reference MIS).
      std::vector<NodeId> order(static_cast<std::size_t>(g.num_nodes()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) order[static_cast<std::size_t>(v)] = v;
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return ids[static_cast<std::size_t>(a)] < ids[static_cast<std::size_t>(b)];
      });
      for (NodeId v : order) {
        bool blocked = false;
        for (NodeId u : g.neighbors(v)) {
          if (labels[static_cast<std::size_t>(u)] == 1) blocked = true;
        }
        if (!blocked) labels[static_cast<std::size_t>(v)] = 1;
      }
    }
    EXPECT_TRUE(check_all_balls(g, 1, labels, mis_ball).ok) << name;
    // Corrupt it: flip one member out — domination breaks somewhere.
    if (g.num_edges() > 0) {
      std::vector<int> broken = labels;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (broken[static_cast<std::size_t>(v)] == 1 && g.degree(v) > 0) {
          broken[static_cast<std::size_t>(v)] = 0;
          break;
        }
      }
      EXPECT_FALSE(check_all_balls(g, 1, broken, mis_ball).ok) << name;
    }
  }
}

TEST(BallChecker, RadiusZeroAndErrors) {
  const Graph g = make_path(4);
  auto all_zero = [](const LabeledBall& ball) {
    return ball.labels[static_cast<std::size_t>(ball.center)] == 0;
  };
  EXPECT_TRUE(check_all_balls(g, 0, std::vector<int>{0, 0, 0, 0}, all_zero).ok);
  const auto r = check_all_balls(g, 0, std::vector<int>{0, 1, 0, 0}, all_zero);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.node, 1);
  EXPECT_FALSE(check_all_balls(g, 1, std::vector<int>{0}, all_zero).ok);
}

}  // namespace
}  // namespace ckp
