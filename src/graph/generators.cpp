#include "graph/generators.hpp"

#include <vector>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace ckp {

// make_path through make_hypercube produce each edge exactly once, so they
// hand their edge list straight to Graph::from_edges (which still rejects
// any duplicate) instead of paying for GraphBuilder's hash set. The random
// families after them use the builder to drop repeated draws.

Graph make_path(NodeId n) {
  CKP_CHECK(n >= 1);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, edges);
}

Graph make_cycle(NodeId n) {
  CKP_CHECK(n >= 3);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Graph::from_edges(n, edges);
}

Graph make_star(NodeId n) {
  CKP_CHECK(n >= 1);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph::from_edges(n, edges);
}

Graph make_complete(NodeId n) {
  CKP_CHECK(n >= 1);
  EdgeList edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::from_edges(n, edges);
}

Graph make_complete_bipartite(NodeId a, NodeId b) {
  CKP_CHECK(a >= 1 && b >= 1);
  EdgeList edges;
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) edges.emplace_back(u, a + v);
  }
  return Graph::from_edges(a + b, edges);
}

Graph make_grid(NodeId rows, NodeId cols) {
  CKP_CHECK(rows >= 1 && cols >= 1);
  EdgeList edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph make_hypercube(int d) {
  CKP_CHECK(d >= 0 && d <= 20);
  const NodeId n = static_cast<NodeId>(1) << d;
  EdgeList edges;
  for (NodeId v = 0; v < n; ++v) {
    for (int bit = 0; bit < d; ++bit) {
      const NodeId u = v ^ (static_cast<NodeId>(1) << bit);
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph make_er(NodeId n, double p, Rng& rng) {
  CKP_CHECK(n >= 0);
  CKP_CHECK(p >= 0.0 && p <= 1.0);
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.next_bernoulli(p)) b.add_edge(u, v);
    }
  }
  return b.build();
}

Graph make_er_m(NodeId n, std::size_t m, Rng& rng) {
  CKP_CHECK(n >= 2);
  const std::size_t max_edges =
      static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2;
  CKP_CHECK_MSG(m <= max_edges, "too many edges requested");
  GraphBuilder b(n);
  while (b.num_edges() < m) {
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u != v) b.add_edge(u, v);
  }
  return b.build();
}

Graph make_random_capped(NodeId n, int cap, std::size_t attempts, Rng& rng) {
  CKP_CHECK(n >= 2);
  CKP_CHECK(cap >= 1);
  GraphBuilder b(n);
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < attempts; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (deg[static_cast<std::size_t>(u)] >= cap ||
        deg[static_cast<std::size_t>(v)] >= cap) {
      continue;
    }
    if (b.add_edge(u, v)) {
      ++deg[static_cast<std::size_t>(u)];
      ++deg[static_cast<std::size_t>(v)];
    }
  }
  return b.build();
}

Graph make_margulis(NodeId m) {
  CKP_CHECK(m >= 2);
  const NodeId n = m * m;
  GraphBuilder b(n);
  auto id = [m](NodeId x, NodeId y) {
    return ((x % m) + m) % m * m + ((y % m) + m) % m;
  };
  for (NodeId x = 0; x < m; ++x) {
    for (NodeId y = 0; y < m; ++y) {
      const NodeId v = id(x, y);
      for (const NodeId u : {id(x + y, y), id(x - y, y), id(x + y + 1, y),
                             id(x - y - 1, y), id(x, y + x), id(x, y - x),
                             id(x, y + x + 1), id(x, y - x - 1)}) {
        if (u != v) b.add_edge(std::min(u, v), std::max(u, v));
      }
    }
  }
  return b.build();
}

}  // namespace ckp
