#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/line_graph.hpp"
#include "graph/subgraph.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace ckp {
namespace {

TEST(Graph, EmptyAndDefault) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  const Graph h = Graph::from_edges(3, {});
  EXPECT_EQ(h.num_nodes(), 3);
  EXPECT_EQ(h.degree(1), 0);
}

TEST(Graph, TriangleBasics) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.max_degree(), 2);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_FALSE(g.is_regular(3));
}

TEST(Graph, NeighborsSortedAndAligned) {
  const Graph g = Graph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {3, 2}});
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  const auto edges = g.incident_edges(3);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EXPECT_EQ(g.other_endpoint(edges[i], 3), nbrs[i]);
  }
}

TEST(Graph, EndpointsNormalized) {
  const Graph g = Graph::from_edges(4, {{3, 1}});
  const auto [a, b] = g.endpoints(0);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 3);
}

TEST(Graph, EdgeBetween) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.edge_between(1, 2), g.edge_between(2, 1));
  EXPECT_NE(g.edge_between(0, 1), kInvalidEdge);
  EXPECT_EQ(g.edge_between(0, 3), kInvalidEdge);
  EXPECT_EQ(g.edge_between(2, 2), kInvalidEdge);
}

TEST(Graph, RejectsBadInput) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 0}}), CheckFailure);
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), CheckFailure);
  EXPECT_THROW(Graph::from_edges(3, {{0, 1}, {1, 0}}), CheckFailure);
}

// ---------------------------------------------------------------------------
// Differential check of Graph::from_edges against the sort-based
// construction it replaced (a sorted copy of the edges to find duplicates,
// then one sort per row), kept here as a test-only oracle.

struct OracleCsr {
  std::vector<std::size_t> offsets;
  std::vector<NodeId> adjacency;
  std::vector<EdgeId> incident;
  EdgeList endpoints;
  int max_degree = 0;
};

OracleCsr oracle_from_edges(NodeId n, const EdgeList& edges) {
  CKP_CHECK(n >= 0);
  OracleCsr o;
  for (auto [u, v] : edges) {
    CKP_CHECK_MSG(u >= 0 && u < n && v >= 0 && v < n,
                  "edge endpoint out of range: {" << u << "," << v << "}");
    CKP_CHECK_MSG(u != v, "self-loop at node " << u);
    if (u > v) std::swap(u, v);
    o.endpoints.emplace_back(u, v);
  }
  auto sorted = o.endpoints;
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  CKP_CHECK_MSG(dup == sorted.end(),
                "duplicate edge {" << dup->first << "," << dup->second << "}");
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> rows(
      static_cast<std::size_t>(n));
  for (EdgeId e = 0; e < static_cast<EdgeId>(o.endpoints.size()); ++e) {
    const auto [u, v] = o.endpoints[static_cast<std::size_t>(e)];
    rows[static_cast<std::size_t>(u)].emplace_back(v, e);
    rows[static_cast<std::size_t>(v)].emplace_back(u, e);
  }
  o.offsets.push_back(0);
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    for (const auto& [u, e] : row) {
      o.adjacency.push_back(u);
      o.incident.push_back(e);
    }
    o.offsets.push_back(o.adjacency.size());
    o.max_degree = std::max(o.max_degree, static_cast<int>(row.size()));
  }
  return o;
}

void expect_matches_oracle(NodeId n, const EdgeList& edges,
                           const std::string& label) {
  const OracleCsr o = oracle_from_edges(n, edges);
  const Graph g = Graph::from_edges(n, edges);
  ASSERT_EQ(g.num_nodes(), n) << label;
  ASSERT_EQ(g.num_edges(), static_cast<EdgeId>(o.endpoints.size())) << label;
  EXPECT_EQ(g.max_degree(), o.max_degree) << label;
  std::vector<std::size_t> offsets = {0};
  std::vector<NodeId> adjacency;
  std::vector<EdgeId> incident;
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ids = g.incident_edges(v);
    adjacency.insert(adjacency.end(), nbrs.begin(), nbrs.end());
    incident.insert(incident.end(), ids.begin(), ids.end());
    offsets.push_back(adjacency.size());
  }
  EXPECT_EQ(offsets, o.offsets) << label;
  EXPECT_EQ(adjacency, o.adjacency) << label;
  EXPECT_EQ(incident, o.incident) << label;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.endpoints(e), o.endpoints[static_cast<std::size_t>(e)])
        << label << " edge " << e;
  }
}

// Both constructions must throw CheckFailure with the same message.
void expect_same_rejection(NodeId n, const EdgeList& edges) {
  std::string want;
  try {
    oracle_from_edges(n, edges);
    FAIL() << "oracle accepted a bad edge list";
  } catch (const CheckFailure& e) {
    want = e.message();
  }
  try {
    Graph::from_edges(n, edges);
    FAIL() << "from_edges accepted a bad edge list (" << want << ")";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(e.message(), want);
  }
}

EdgeList random_simple_edges(NodeId n, std::size_t m, Rng& rng) {
  EdgeList edges;
  std::vector<std::pair<NodeId, NodeId>> seen;
  while (edges.size() < m) {
    auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    const std::pair<NodeId, NodeId> key{std::min(u, v), std::max(u, v)};
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    seen.push_back(key);
    edges.emplace_back(u, v);  // either orientation, as drawn
  }
  return edges;
}

TEST(FromEdges, MatchesSortBasedOracle) {
  Rng rng(0xF0E);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng.next_below(60));
    const std::size_t max_m =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2;
    const auto m = static_cast<std::size_t>(rng.next_below(max_m + 1));
    EdgeList edges = random_simple_edges(n, m, rng);
    const std::string label = "n=" + std::to_string(n) +
                              " m=" + std::to_string(m);
    expect_matches_oracle(n, edges, label + " drawn");
    std::sort(edges.begin(), edges.end());
    expect_matches_oracle(n, edges, label + " sorted");
    std::reverse(edges.begin(), edges.end());
    expect_matches_oracle(n, edges, label + " reversed");
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[rng.next_below(i)]);
    }
    expect_matches_oracle(n, edges, label + " shuffled");
  }
}

TEST(FromEdges, MatchesOracleOnEdgeCases) {
  expect_matches_oracle(0, {}, "n=0");
  expect_matches_oracle(5, {}, "isolated only");
  expect_matches_oracle(9, {{7, 2}, {4, 8}}, "mostly isolated");
  const NodeId n = 200;
  EdgeList star;
  for (NodeId v = n - 1; v >= 1; --v) star.emplace_back(v, 0);
  expect_matches_oracle(n, star, "star, hub row of degree n-1");
  EdgeList complete;
  for (NodeId u = 40; u-- > 0;) {
    for (NodeId v = 0; v < u; ++v) complete.emplace_back(u, v);
  }
  expect_matches_oracle(40, complete, "complete K40, descending");
}

TEST(FromEdges, RejectsLikeOracle) {
  expect_same_rejection(3, {{0, 1}, {1, 2}, {1, 0}});          // duplicate
  expect_same_rejection(5, {{3, 4}, {1, 2}, {4, 3}, {2, 1}});  // smallest named
  expect_same_rejection(6, {{5, 0}, {4, 5}, {0, 5}, {5, 4}});
  expect_same_rejection(4, {{0, 1}, {2, 2}, {1, 0}});  // self-loop first
  expect_same_rejection(4, {{0, 1}, {1, 0}, {3, 3}});  // checks before dups
  expect_same_rejection(4, {{0, 4}});                  // out of range
  expect_same_rejection(4, {{-1, 2}});
  expect_same_rejection(0, {{0, 1}});
}

// The O(n + m) construction allocates a fixed number of arrays, however
// large the graph: no per-edge hash nodes, no per-row scratch.
TEST(FromEdges, CompleteTreeAllocationsIndependentOfN) {
  CKP_SKIP_IF_COUNTERS_IDLE();
  const auto allocations = [](NodeId n) {
    AllocScope scope;
    const Graph g = make_complete_tree(n, 16);
    EXPECT_EQ(g.num_edges(), n - 1);
    return scope.allocations();
  };
  const std::uint64_t small = allocations(1 << 10);
  const std::uint64_t large = allocations(1 << 16);
  EXPECT_EQ(large, small);
  EXPECT_LE(large, 10u);
}

TEST(Graph, OtherEndpointChecksMembership) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  EXPECT_EQ(g.other_endpoint(0, 0), 1);
  EXPECT_THROW(g.other_endpoint(0, 2), CheckFailure);
}

TEST(Builder, DeduplicatesAndCounts) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));
  EXPECT_TRUE(b.add_edge(2, 3));
  EXPECT_EQ(b.num_edges(), 2u);
  EXPECT_TRUE(b.has_edge(1, 0));
  EXPECT_FALSE(b.has_edge(0, 2));
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Builder, RejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), CheckFailure);
}

TEST(IO, RoundTrip) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    std::stringstream ss;
    write_edge_list(g, ss);
    const Graph back = read_edge_list(ss);
    ASSERT_EQ(back.num_nodes(), g.num_nodes()) << name;
    ASSERT_EQ(back.num_edges(), g.num_edges()) << name;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [u, v] = g.endpoints(e);
      EXPECT_TRUE(back.has_edge(u, v)) << name;
    }
  }
}

TEST(IO, RejectsMalformed) {
  std::stringstream ss("not a graph");
  EXPECT_THROW(read_edge_list(ss), CheckFailure);
  std::stringstream truncated("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(truncated), CheckFailure);
}

TEST(Subgraph, InducedKeepsInternalEdges) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  std::vector<char> keep{1, 1, 1, 0, 0};
  const auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 2);  // 0-1 and 1-2
  EXPECT_EQ(sub.from_original[3], kInvalidNode);
  EXPECT_EQ(sub.to_original[static_cast<std::size_t>(sub.from_original[1])], 1);
}

TEST(Subgraph, EmptySelection) {
  const Graph g = Graph::from_edges(3, {{0, 1}});
  const auto sub = induced_subgraph(g, {0, 0, 0});
  EXPECT_EQ(sub.graph.num_nodes(), 0);
}

TEST(LineGraph, PathAndStar) {
  // Line graph of P4 (3 edges) is P3.
  const Graph p4 = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph lp = line_graph(p4);
  EXPECT_EQ(lp.num_nodes(), 3);
  EXPECT_EQ(lp.num_edges(), 2);
  // Line graph of a star K_{1,4} is K4.
  const Graph star = Graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const Graph ls = line_graph(star);
  EXPECT_EQ(ls.num_nodes(), 4);
  EXPECT_EQ(ls.num_edges(), 6);
}

TEST(LineGraph, DegreeBound) {
  for (const auto& [name, g] : testing::small_graph_zoo()) {
    if (g.num_edges() == 0) continue;
    const Graph lg = line_graph(g);
    EXPECT_EQ(lg.num_nodes(), g.num_edges()) << name;
    EXPECT_LE(lg.max_degree(), 2 * (g.max_degree() - 1)) << name;
  }
}

}  // namespace
}  // namespace ckp
