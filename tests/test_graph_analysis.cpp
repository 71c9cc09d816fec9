#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "graph/edge_coloring.hpp"
#include "graph/generators.hpp"
#include "graph/girth.hpp"
#include "graph/power.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace ckp {
namespace {

TEST(Girth, KnownValues) {
  EXPECT_EQ(girth(make_cycle(5)), 5);
  EXPECT_EQ(girth(make_cycle(12)), 12);
  EXPECT_EQ(girth(make_complete(4)), 3);
  EXPECT_EQ(girth(make_complete_bipartite(2, 3)), 4);
  EXPECT_EQ(girth(make_path(10)), kInfiniteGirth);
  EXPECT_EQ(girth(make_hypercube(4)), 4);
  EXPECT_EQ(girth(make_grid(4, 4)), 4);
}

TEST(Girth, PetersenGraph) {
  // The Petersen graph: 3-regular, girth 5.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 5; ++i) {
    edges.emplace_back(i, (i + 1) % 5);          // outer cycle
    edges.emplace_back(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    edges.emplace_back(i, 5 + i);                // spokes
  }
  const Graph petersen = Graph::from_edges(10, edges);
  EXPECT_TRUE(petersen.is_regular(3));
  EXPECT_EQ(girth(petersen), 5);
}

TEST(Girth, SampledUpperBoundConsistent) {
  Rng rng(97);
  const Graph g = make_random_regular(60, 3, rng);
  const int exact = girth(g);
  const int sampled = girth_upper_bound_sampled(g, 60, rng);
  EXPECT_GE(sampled, exact);
  const int full_sample = girth_upper_bound_sampled(g, 600, rng);
  EXPECT_GE(full_sample, exact);  // an upper bound, usually equal
}

TEST(Girth, SampledFindsFarAwayCycleWithoutReplacement) {
  // A long path with a single triangle at the far end. Sampling with
  // replacement (the old implementation) could draw the same start vertices
  // repeatedly and miss the triangle even at samples == n; sampling without
  // replacement plus the exact fallback at samples >= n makes detection
  // certain, for every seed.
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId n = 30;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  edges.emplace_back(n - 3, n - 1);  // closes the triangle {27, 28, 29}
  const Graph g = Graph::from_edges(n, edges);
  ASSERT_EQ(girth(g), 3);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    EXPECT_EQ(girth_upper_bound_sampled(g, n, rng), 3) << seed;
    // Even one short of n: at most one vertex goes unsampled, and the
    // triangle has three, so some triangle vertex is always a start.
    Rng rng2(seed);
    EXPECT_EQ(girth_upper_bound_sampled(g, n - 1, rng2), 3) << seed;
  }
}

TEST(ShortestCycleThrough, PathHasNone) {
  const Graph g = make_path(6);
  for (NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(shortest_cycle_through(g, v), kInfiniteGirth);
  }
}

TEST(Components, WholeGraph) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 3);
  EXPECT_EQ(c.largest(), 3);
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_NE(c.label[3], c.label[5]);
}

TEST(Components, Subset) {
  const Graph g = make_path(10);
  std::vector<char> keep(10, 1);
  keep[3] = 0;
  keep[7] = 0;
  const auto c = components_of_subset(g, keep);
  EXPECT_EQ(c.count, 3);
  EXPECT_EQ(c.largest(), 3);
  EXPECT_EQ(c.label[3], -1);
}

TEST(Components, EmptySubset) {
  const Graph g = make_cycle(5);
  const auto c = components_of_subset(g, std::vector<char>(5, 0));
  EXPECT_EQ(c.count, 0);
  EXPECT_EQ(c.largest(), 0);
}

TEST(Components, SubsetLabelsInDiscoveryOrder) {
  const Graph g = make_path(10);
  std::vector<char> keep(10, 1);
  keep[3] = 0;
  keep[7] = 0;
  const auto c = components_of_subset(g, keep);
  EXPECT_EQ(c.size, (std::vector<NodeId>{3, 3, 2}));
  EXPECT_EQ(c.label,
            (std::vector<int>{0, 0, 0, -1, 1, 1, 1, -1, 2, 2}));
}

TEST(Components, RejectsWrongSizeSubset) {
  const Graph g = make_path(4);
  EXPECT_THROW(components_of_subset(g, std::vector<char>(3, 1)), CheckFailure);
  EXPECT_THROW(components_of_subset(g, std::vector<char>(5, 1)), CheckFailure);
}

// One flat queue serves the whole pass: 2048 singleton components cost a
// few growths of the size vector, not one queue per component.
TEST(Components, ManyComponentsAllocateNoQueuePerComponent) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  const Graph g = make_path(1 << 12);
  std::vector<char> keep(1 << 12, 0);
  for (std::size_t v = 0; v < keep.size(); v += 2) keep[v] = 1;
  AllocScope scope;
  const auto c = components_of_subset(g, keep);
  const std::uint64_t allocations = scope.allocations();
  EXPECT_EQ(c.count, 1 << 11);
  EXPECT_EQ(c.largest(), 1);
  EXPECT_LE(allocations, 32u);
}

TEST(BfsDistances, CappedCorrectly) {
  const Graph g = make_path(10);
  const auto dist = bfs_distances(g, 0, 3);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[4], -1);
}

TEST(Ball, SizesOnTree) {
  const Graph g = make_complete_tree(40, 3);
  EXPECT_EQ(ball(g, 0, 0).size(), 1u);
  EXPECT_EQ(ball(g, 0, 1).size(), 4u);   // root + 3 children
  EXPECT_EQ(ball(g, 0, 2).size(), 10u);  // + 6 grandchildren
}

TEST(PowerGraph, CycleSquared) {
  const Graph g = make_cycle(8);
  const Graph g2 = power_graph(g, 2);
  EXPECT_TRUE(g2.is_regular(4));
  EXPECT_EQ(g2.num_edges(), 16);
  // Power 4 of C8 is K8 (radius covers everything).
  const Graph g4 = power_graph(g, 4);
  EXPECT_EQ(g4.num_edges(), 28);
}

TEST(PowerGraph, DistancePreservation) {
  const Graph g = make_path(7);
  const Graph g3 = power_graph(g, 3);
  EXPECT_TRUE(g3.has_edge(0, 3));
  EXPECT_FALSE(g3.has_edge(0, 4));
}

TEST(TreeEdgeColoring, ProperWithDeltaColors) {
  for (const auto& [name, g] : testing::tree_zoo()) {
    if (g.num_edges() == 0) continue;
    const auto colors = tree_edge_coloring(g);
    EXPECT_TRUE(is_proper_edge_coloring(g, colors, std::max(1, g.max_degree())))
        << name;
    EXPECT_LE(count_edge_colors(colors), g.max_degree()) << name;
  }
}

TEST(TreeEdgeColoring, RejectsNonTree) {
  EXPECT_THROW(tree_edge_coloring(make_cycle(4)), CheckFailure);
}

TEST(GreedyEdgeColoring, WithinTwoDeltaMinusOne) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    if (g.num_edges() == 0) continue;
    const auto colors = greedy_edge_coloring(g);
    const int used = count_edge_colors(colors);
    EXPECT_TRUE(is_proper_edge_coloring(g, colors, used)) << name;
    EXPECT_LE(used, 2 * g.max_degree() - 1) << name;
  }
}

}  // namespace
}  // namespace ckp
