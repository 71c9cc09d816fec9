#include "graph/regular.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/girth.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {
namespace {

class RandomRegular : public ::testing::TestWithParam<std::pair<NodeId, int>> {};

TEST_P(RandomRegular, IsSimpleAndRegular) {
  const auto [n, d] = GetParam();
  Rng rng(mix_seed(71, static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(d)));
  const Graph g = make_random_regular(n, d, rng);
  EXPECT_EQ(g.num_nodes(), n);
  EXPECT_TRUE(g.is_regular(d));
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(static_cast<std::int64_t>(n) * d / 2));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomRegular,
    ::testing::Values(std::pair<NodeId, int>{10, 3},
                      std::pair<NodeId, int>{50, 3},
                      std::pair<NodeId, int>{64, 4},
                      std::pair<NodeId, int>{100, 5},
                      std::pair<NodeId, int>{128, 8},
                      std::pair<NodeId, int>{41, 6}));

TEST(RandomRegular, RejectsOddProduct) {
  Rng rng(73);
  EXPECT_THROW(make_random_regular(7, 3, rng), CheckFailure);
}

class BipartiteRegular
    : public ::testing::TestWithParam<std::pair<NodeId, int>> {};

TEST_P(BipartiteRegular, RegularBipartiteProperlyColored) {
  const auto [side, d] = GetParam();
  Rng rng(mix_seed(79, static_cast<std::uint64_t>(side), static_cast<std::uint64_t>(d)));
  const auto inst = make_random_bipartite_regular(side, d, rng);
  EXPECT_EQ(inst.graph.num_nodes(), 2 * side);
  EXPECT_TRUE(inst.graph.is_regular(d));
  EXPECT_EQ(inst.num_colors, d);
  EXPECT_TRUE(is_proper_edge_coloring(inst.graph, inst.edge_color, d));
  // Bipartite: no edge within a side.
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const auto [u, v] = inst.graph.endpoints(e);
    EXPECT_NE(u < side, v < side);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BipartiteRegular,
    ::testing::Values(std::pair<NodeId, int>{8, 3},
                      std::pair<NodeId, int>{32, 3},
                      std::pair<NodeId, int>{64, 4},
                      std::pair<NodeId, int>{100, 6},
                      std::pair<NodeId, int>{200, 8}));

// FNV-1a over the full instance: per-node adjacency and incident edge ids,
// per-edge endpoints and colours, then the generator's RNG state afterwards
// (its next draw).
std::uint64_t instance_digest(const EdgeColoredGraph& inst, Rng& rng) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
  };
  const Graph& g = inst.graph;
  mix(static_cast<std::uint64_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    mix(static_cast<std::uint64_t>(g.degree(v)));
    for (const NodeId u : g.neighbors(v)) mix(static_cast<std::uint64_t>(u));
    for (const EdgeId e : g.incident_edges(v)) {
      mix(static_cast<std::uint64_t>(e));
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mix(static_cast<std::uint64_t>(g.endpoints(e).first));
    mix(static_cast<std::uint64_t>(g.endpoints(e).second));
    mix(static_cast<std::uint64_t>(inst.edge_color[static_cast<std::size_t>(e)]));
  }
  mix(static_cast<std::uint64_t>(inst.num_colors));
  mix(rng());
  return h;
}

// Pins the generator's exact output, so a change to how it is built must
// reproduce every instance bit for bit.
TEST(BipartiteRegular, OutputDigestIsPinned) {
  struct Case {
    NodeId side;
    int d;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {1, 1, 5, 0xf42e97b2693820e7},
      {8, 3, 79, 0x008dedfc349dbfe5},
      {33, 3, 11, 0xdc3f36dcb7a29bdf},
      {64, 4, 0x5EED, 0xac757f333c04057e},
      {100, 6, 83, 0x5850b756a1039c84},
      {200, 8, 89, 0x91eca08486782a6d},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const auto inst = make_random_bipartite_regular(c.side, c.d, rng);
    const std::uint64_t digest = instance_digest(inst, rng);
    EXPECT_EQ(digest, c.digest)
        << "side=" << c.side << " d=" << c.d << " seed=" << c.seed
        << " digest=0x" << std::hex << digest;
  }
}

TEST(BipartiteRegular, EvenGirthAtLeastFour) {
  Rng rng(83);
  const auto inst = make_random_bipartite_regular(128, 3, rng);
  const int g = girth(inst.graph);
  EXPECT_GE(g, 4);
  EXPECT_EQ(g % 2, 0);  // bipartite graphs have even girth
}

TEST(BipartiteRegular, ShortCyclesAreRare) {
  // Substitution check (DESIGN.md): in a random Δ-regular bipartite graph
  // the expected number of 4-cycles is Θ(1) independent of n, so the local
  // girth around almost every vertex is >= 6 (and grows with n). Sample
  // vertices and check the overwhelming majority see no 4-cycle.
  Rng rng(89);
  const auto inst = make_random_bipartite_regular(1024, 3, rng);
  int long_girth = 0;
  const int samples = 64;
  for (int s = 0; s < samples; ++s) {
    const auto v = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(inst.graph.num_nodes())));
    if (shortest_cycle_through(inst.graph, v) >= 6) ++long_girth;
  }
  EXPECT_GE(long_girth, samples * 8 / 10);
}

TEST(Moebius, ThreeRegular) {
  const Graph g = make_moebius_ladder(8);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_TRUE(connected_components(g).count == 1);
}

TEST(ProperEdgeColoring, DetectsViolations) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(is_proper_edge_coloring(g, {0, 1}, 2));
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 0}, 2));   // meet at node 1
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 2}, 2));   // out of range
  EXPECT_FALSE(is_proper_edge_coloring(g, {0}, 2));      // wrong size
}

TEST(ProperEdgeColoring, ColoursReusedAcrossNodes) {
  // Path 0-1-2-3-4: every node may reuse the colours its predecessor used.
  const Graph g = make_path(5);
  EXPECT_TRUE(is_proper_edge_coloring(g, {0, 1, 0, 1}, 2));
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 1, 1, 0}, 2));  // at node 2
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, -1, 0, 1}, 2));  // negative
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 1, 0, 1, 0}, 2));  // too long
  EXPECT_TRUE(is_proper_edge_coloring(Graph::from_edges(3, {}), {}, 0));
}

TEST(ProperEdgeColoring, FindsAClashAtTheLastNode) {
  Rng rng(0xC01);
  auto inst = make_random_bipartite_regular(300, 4, rng);
  ASSERT_TRUE(
      is_proper_edge_coloring(inst.graph, inst.edge_color, inst.num_colors));
  const NodeId last = inst.graph.num_nodes() - 1;
  const auto edges = inst.graph.incident_edges(last);
  inst.edge_color[static_cast<std::size_t>(edges[1])] =
      inst.edge_color[static_cast<std::size_t>(edges[0])];
  EXPECT_FALSE(
      is_proper_edge_coloring(inst.graph, inst.edge_color, inst.num_colors));
}

TEST(ProperEdgeColoring, OneScratchVectorPerCheck) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  Rng rng(0xC02);
  const auto inst = make_random_bipartite_regular(1 << 11, 3, rng);
  AllocScope scope;
  const bool proper =
      is_proper_edge_coloring(inst.graph, inst.edge_color, inst.num_colors);
  const std::uint64_t allocations = scope.allocations();
  EXPECT_TRUE(proper);
  EXPECT_LE(allocations, 1u);
}

// ---------------------------------------------------------------------------
// Streaming generator (make_random_bipartite_regular_streamed): writes the
// union-of-matchings directly into the final CSR, sharded. Must produce the
// same family of instances as the vector-based generator and be a pure
// function of (side, d, seed) — independent of shard size and thread count.

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "adjacency differs at node " << v;
  }
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.endpoints(e), b.endpoints(e)) << "edge " << e;
  }
}

class StreamedBipartite
    : public ::testing::TestWithParam<std::pair<NodeId, int>> {};

TEST_P(StreamedBipartite, RegularBipartiteProperlyColored) {
  const auto [side, d] = GetParam();
  Rng rng(mix_seed(97, static_cast<std::uint64_t>(side),
                   static_cast<std::uint64_t>(d)));
  const auto inst = make_random_bipartite_regular_streamed(side, d, rng, 16);
  EXPECT_EQ(inst.graph.num_nodes(), 2 * side);
  EXPECT_TRUE(inst.graph.is_regular(d));
  EXPECT_EQ(inst.num_colors, d);
  EXPECT_TRUE(is_proper_edge_coloring(inst.graph, inst.edge_color, d));
  for (EdgeId e = 0; e < inst.graph.num_edges(); ++e) {
    const auto [u, v] = inst.graph.endpoints(e);
    EXPECT_NE(u < side, v < side);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StreamedBipartite,
    ::testing::Values(std::pair<NodeId, int>{2, 2},
                      std::pair<NodeId, int>{8, 3},
                      std::pair<NodeId, int>{33, 3},
                      std::pair<NodeId, int>{64, 4},
                      std::pair<NodeId, int>{100, 6},
                      std::pair<NodeId, int>{64, 16}));

TEST(StreamedBipartite, ShardSizeInvariant) {
  // The shard size only blocks the (RNG-free) finalize and sort passes; the
  // instance must be bit-identical for any value, including shards that
  // don't divide n and a single shard covering everything.
  const auto base = [] {
    Rng rng(0x5EED);
    return make_random_bipartite_regular_streamed(50, 4, rng, 1);
  }();
  for (const NodeId shard : {2, 7, 50, 64, 1 << 20}) {
    Rng rng(0x5EED);
    const auto inst = make_random_bipartite_regular_streamed(50, 4, rng, shard);
    expect_same_graph(inst.graph, base.graph);
    EXPECT_EQ(inst.edge_color, base.edge_color) << "shard_nodes=" << shard;
  }
}

TEST(StreamedBipartite, ThreadCountInvariant) {
  const auto base = [] {
    Rng rng(0xBEE);
    return make_random_bipartite_regular_streamed(64, 5, rng, 8, 1);
  }();
  for (const int threads : {2, 8}) {
    Rng rng(0xBEE);
    const auto inst =
        make_random_bipartite_regular_streamed(64, 5, rng, 8, threads);
    expect_same_graph(inst.graph, base.graph);
    EXPECT_EQ(inst.edge_color, base.edge_color) << "threads=" << threads;
  }
}

TEST(StreamedBipartite, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(make_random_bipartite_regular_streamed(0, 2, rng, 8),
               CheckFailure);
  EXPECT_THROW(make_random_bipartite_regular_streamed(8, 0, rng, 8),
               CheckFailure);
  EXPECT_THROW(make_random_bipartite_regular_streamed(8, 9, rng, 8),
               CheckFailure);  // d > side forces a multi-edge
  EXPECT_THROW(make_random_bipartite_regular_streamed(8, 3, rng, 0),
               CheckFailure);
}

TEST(FromRegularCsr, RejectsMalformedInput) {
  // A valid hand-built 1-regular instance on 2 nodes: one edge {0,1}.
  const auto ok = Graph::from_regular_csr(2, 1, {1, 0}, {0, 0}, {{0, 1}});
  EXPECT_EQ(ok.num_edges(), 1);
  EXPECT_TRUE(ok.is_regular(1));
  // Self-loop.
  EXPECT_THROW(Graph::from_regular_csr(2, 1, {0, 1}, {0, 0}, {{0, 1}}),
               CheckFailure);
  // Endpoint record disagrees with the adjacency.
  EXPECT_THROW(Graph::from_regular_csr(2, 1, {1, 0}, {0, 0}, {{0, 0}}),
               CheckFailure);
  // An edge id borrowed by an unrelated slot (edge 0 claimed by node 2).
  EXPECT_THROW(
      Graph::from_regular_csr(4, 1, {1, 0, 3, 2}, {0, 0, 0, 1}, {{0, 1}, {2, 3}}),
      CheckFailure);
}

}  // namespace
}  // namespace ckp
