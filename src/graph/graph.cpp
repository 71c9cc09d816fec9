#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace ckp {

Graph Graph::from_edges(NodeId n, const EdgeList& edges) {
  CKP_CHECK(n >= 0);
  const auto nodes = static_cast<std::size_t>(n);
  Graph g;
  g.endpoints_.reserve(edges.size());
  g.offsets_.assign(nodes + 1, 0);
  for (auto [u, v] : edges) {
    CKP_CHECK_MSG(u >= 0 && u < n && v >= 0 && v < n,
                  "edge endpoint out of range: {" << u << "," << v << "}");
    CKP_CHECK_MSG(u != v, "self-loop at node " << u);
    if (u > v) std::swap(u, v);
    g.endpoints_.emplace_back(u, v);
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());

  // Two-pass counting sort over the 2m arcs. Pass 1 buckets every arc x->w
  // by its neighbour w, in edge order; the graph is symmetric, so bucket w
  // fills exactly w's row span. Pass 2 walks the buckets in ascending w and
  // appends w to row x, so every row comes out ascending and each edge id
  // stays aligned with its neighbour.
  const std::size_t arcs = 2 * g.endpoints_.size();
  std::vector<NodeId> source(arcs);
  std::vector<EdgeId> via(arcs);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (EdgeId e = 0; e < static_cast<EdgeId>(g.endpoints_.size()); ++e) {
    const auto [u, v] = g.endpoints_[static_cast<std::size_t>(e)];
    source[cursor[static_cast<std::size_t>(v)]] = u;
    via[cursor[static_cast<std::size_t>(v)]++] = e;
    source[cursor[static_cast<std::size_t>(u)]] = v;
    via[cursor[static_cast<std::size_t>(u)]++] = e;
  }
  std::copy(g.offsets_.begin(), g.offsets_.end() - 1, cursor.begin());
  g.adjacency_.resize(arcs);
  g.incident_.resize(arcs);
  for (NodeId w = 0; w < n; ++w) {
    for (std::size_t i = g.offsets_[static_cast<std::size_t>(w)];
         i < g.offsets_[static_cast<std::size_t>(w) + 1]; ++i) {
      const std::size_t slot = cursor[static_cast<std::size_t>(source[i])]++;
      g.adjacency_[slot] = w;
      g.incident_[slot] = via[i];
    }
  }

  // A duplicate edge {a,b} leaves two equal adjacent entries in both rows;
  // rows are scanned in ascending order, so the first hit is in row a and
  // names the lexicographically smallest duplicate.
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t lo = g.offsets_[static_cast<std::size_t>(v)];
    const std::size_t hi = g.offsets_[static_cast<std::size_t>(v) + 1];
    for (std::size_t i = lo + 1; i < hi; ++i) {
      CKP_CHECK_MSG(g.adjacency_[i] != g.adjacency_[i - 1],
                    "duplicate edge {" << v << "," << g.adjacency_[i] << "}");
    }
    g.max_degree_ = std::max(g.max_degree_, static_cast<int>(hi - lo));
  }
  return g;
}

Graph Graph::from_regular_csr(NodeId n, int d, std::vector<NodeId> adjacency,
                              std::vector<EdgeId> incident,
                              std::vector<std::pair<NodeId, NodeId>> endpoints) {
  CKP_CHECK(n >= 0 && d >= 0);
  const auto slots = static_cast<std::size_t>(n) * static_cast<std::size_t>(d);
  CKP_CHECK_MSG((slots / 2) <= static_cast<std::size_t>(
                                   std::numeric_limits<EdgeId>::max()),
                "edge count overflows EdgeId");
  const auto m = static_cast<EdgeId>(slots / 2);
  CKP_CHECK_MSG(slots % 2 == 0, "n*d must be even");
  CKP_CHECK(adjacency.size() == slots);
  CKP_CHECK(incident.size() == slots);
  CKP_CHECK(endpoints.size() == static_cast<std::size_t>(m));

  // Strictly ascending rows rule out duplicate neighbors; endpoint
  // consistency per slot plus the slot count then pins every edge to exactly
  // one reference from each of its two endpoints.
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t lo = static_cast<std::size_t>(v) * d;
    for (int k = 0; k < d; ++k) {
      const NodeId u = adjacency[lo + static_cast<std::size_t>(k)];
      CKP_CHECK_MSG(u >= 0 && u < n && u != v,
                    "bad neighbor " << u << " in row of node " << v);
      CKP_CHECK_MSG(k == 0 || adjacency[lo + static_cast<std::size_t>(k) - 1] < u,
                    "row of node " << v << " not strictly ascending");
      const EdgeId e = incident[lo + static_cast<std::size_t>(k)];
      CKP_CHECK_MSG(e >= 0 && e < m, "bad edge id " << e);
      const auto [a, b] = endpoints[static_cast<std::size_t>(e)];
      CKP_CHECK_MSG(a == std::min(v, u) && b == std::max(v, u),
                    "edge " << e << " endpoints disagree with slot {" << v
                            << "," << u << "}");
    }
  }

  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    g.offsets_[static_cast<std::size_t>(v) + 1] =
        static_cast<std::size_t>(v + 1) * static_cast<std::size_t>(d);
  }
  g.adjacency_ = std::move(adjacency);
  g.incident_ = std::move(incident);
  g.endpoints_ = std::move(endpoints);
  g.max_degree_ = n > 0 ? d : 0;
  return g;
}

NodeId Graph::other_endpoint(EdgeId e, NodeId v) const {
  const auto [a, b] = endpoints(e);
  CKP_CHECK_MSG(v == a || v == b, "node " << v << " not on edge " << e);
  return v == a ? b : a;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return edge_between(u, v) != kInvalidEdge;
}

EdgeId Graph::edge_between(NodeId u, NodeId v) const {
  if (u == v) return kInvalidEdge;
  // Search in the shorter adjacency list.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  const auto idx = static_cast<std::size_t>(it - nbrs.begin());
  return incident_edges(u)[idx];
}

bool Graph::is_regular(int d) const {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (degree(v) != d) return false;
  }
  return true;
}

}  // namespace ckp
