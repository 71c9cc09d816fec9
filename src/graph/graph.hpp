// Immutable undirected graph in CSR (compressed sparse row) form.
//
// This is the topology object every simulation runs on. Nodes are dense
// integers [0, n). Each undirected edge has a single EdgeId shared by both
// directions so per-edge inputs (e.g. the proper edge colorings required by
// Δ-sinkless problems) and per-edge outputs (orientations, matchings) are
// well-defined. Adjacency lists are sorted by neighbor id, which makes
// simulations deterministic and membership queries logarithmic.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ckp {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

// An undirected edge list; position i becomes EdgeId i.
using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

class Graph {
 public:
  // An empty graph (0 nodes). Useful as a placeholder before assignment.
  Graph() = default;

  // Builds a graph with `n` nodes from an undirected edge list; edge i of
  // the list gets EdgeId i. Endpoints must lie in [0, n). Self-loops and
  // duplicate edges are rejected (CheckFailure); a duplicate is reported as
  // the lexicographically smallest one, "duplicate edge {a,b}" with a < b.
  // Cost: O(n + m) time by a two-pass counting sort over the 2m arcs, and a
  // constant number of allocations whatever the input order. Generators
  // whose edges are unique by construction call this directly; only
  // callers that need duplicates dropped go through GraphBuilder.
  static Graph from_edges(NodeId n, const EdgeList& edges);

  // Adopts prebuilt CSR arrays for a d-regular graph without the edge-list
  // round trip of from_edges (the streaming generators write adjacency in
  // its final layout; re-expanding 10^8 nodes into a pair vector would
  // double peak memory). Node v's row is [v*d, (v+1)*d): `adjacency` sorted
  // strictly ascending per row, `incident` aligned with it, `endpoints`
  // with first < second. The layout is fully validated (CheckFailure on any
  // inconsistency); one O(n*d) pass, no auxiliary structures.
  static Graph from_regular_csr(NodeId n, int d, std::vector<NodeId> adjacency,
                                std::vector<EdgeId> incident,
                                std::vector<std::pair<NodeId, NodeId>> endpoints);

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size()) - 1; }
  EdgeId num_edges() const { return static_cast<EdgeId>(endpoints_.size()); }

  int degree(NodeId v) const {
    return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)]);
  }

  // Maximum degree Δ(G); 0 for edgeless graphs.
  int max_degree() const { return max_degree_; }

  // Neighbors of v, sorted ascending.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adjacency_.data() + offsets_[static_cast<std::size_t>(v)],
            adjacency_.data() + offsets_[static_cast<std::size_t>(v) + 1]};
  }

  // Edge ids aligned with neighbors(v): incident_edges(v)[i] is the id of
  // the edge {v, neighbors(v)[i]}.
  std::span<const EdgeId> incident_edges(NodeId v) const {
    return {incident_.data() + offsets_[static_cast<std::size_t>(v)],
            incident_.data() + offsets_[static_cast<std::size_t>(v) + 1]};
  }

  // The two endpoints of edge e, with first < second.
  std::pair<NodeId, NodeId> endpoints(EdgeId e) const {
    return endpoints_[static_cast<std::size_t>(e)];
  }

  // The endpoint of e that is not v; v must be an endpoint.
  NodeId other_endpoint(EdgeId e, NodeId v) const;

  // True iff {u, v} is an edge (binary search; u != v).
  bool has_edge(NodeId u, NodeId v) const;

  // The EdgeId of {u, v}, or kInvalidEdge if absent.
  EdgeId edge_between(NodeId u, NodeId v) const;

  // True iff every node has degree exactly d.
  bool is_regular(int d) const;

  // Total undirected edge count equals sum of degrees / 2 by construction.

 private:
  std::vector<std::size_t> offsets_ = {0};  // size n+1
  std::vector<NodeId> adjacency_;      // size 2m, sorted per node
  std::vector<EdgeId> incident_;       // size 2m, aligned with adjacency_
  std::vector<std::pair<NodeId, NodeId>> endpoints_;  // size m
  int max_degree_ = 0;
};

}  // namespace ckp
