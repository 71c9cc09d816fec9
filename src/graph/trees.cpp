#include "graph/trees.hpp"

#include <algorithm>
#include <queue>

#include "util/check.hpp"

namespace ckp {

Graph make_complete_tree(NodeId n, int delta) {
  CKP_CHECK(n >= 1);
  CKP_CHECK(delta >= 2);
  // Assign children in BFS order; the root may take `delta` children, later
  // nodes `delta - 1` (one slot is used by their parent edge). Every edge
  // is new, so the list goes straight to from_edges.
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  NodeId next_child = 1;
  for (NodeId v = 0; v < n && next_child < n; ++v) {
    const int capacity = (v == 0) ? delta : delta - 1;
    for (int c = 0; c < capacity && next_child < n; ++c) {
      edges.emplace_back(v, next_child++);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph make_random_tree(NodeId n, int delta, Rng& rng) {
  CKP_CHECK(n >= 1);
  CKP_CHECK(delta >= 2);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  // `open` holds nodes that can still accept another child.
  std::vector<NodeId> open;
  if (n > 1) open.push_back(0);
  for (NodeId v = 1; v < n; ++v) {
    CKP_CHECK_MSG(!open.empty(), "degree cap too tight to grow the tree");
    const auto idx =
        static_cast<std::size_t>(rng.next_below(open.size()));
    const NodeId parent = open[idx];
    edges.emplace_back(parent, v);
    if (++deg[static_cast<std::size_t>(parent)] >= delta) {
      open[idx] = open.back();
      open.pop_back();
    }
    if (++deg[static_cast<std::size_t>(v)] < delta) open.push_back(v);
  }
  return Graph::from_edges(n, edges);
}

Graph make_prufer_tree(NodeId n, Rng& rng) {
  CKP_CHECK(n >= 1);
  if (n == 1) return Graph::from_edges(1, {});
  if (n == 2) return Graph::from_edges(2, {{0, 1}});
  std::vector<NodeId> prufer(static_cast<std::size_t>(n) - 2);
  for (auto& x : prufer) {
    x = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
  }
  std::vector<int> deg(static_cast<std::size_t>(n), 1);
  for (NodeId x : prufer) ++deg[static_cast<std::size_t>(x)];

  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  // Standard linear-time decode with a moving pointer over leaves.
  NodeId ptr = 0;
  while (deg[static_cast<std::size_t>(ptr)] != 1) ++ptr;
  NodeId leaf = ptr;
  for (NodeId x : prufer) {
    edges.emplace_back(leaf, x);
    if (--deg[static_cast<std::size_t>(x)] == 1 && x < ptr) {
      leaf = x;
    } else {
      ++ptr;
      while (deg[static_cast<std::size_t>(ptr)] != 1) ++ptr;
      leaf = ptr;
    }
  }
  edges.emplace_back(leaf, n - 1);
  return Graph::from_edges(n, edges);
}

Graph make_caterpillar(NodeId spine, int legs) {
  CKP_CHECK(spine >= 1);
  CKP_CHECK(legs >= 0);
  const NodeId n = spine + spine * legs;
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId s = 0; s + 1 < spine; ++s) edges.emplace_back(s, s + 1);
  NodeId next = spine;
  for (NodeId s = 0; s < spine; ++s) {
    for (int l = 0; l < legs; ++l) edges.emplace_back(s, next++);
  }
  return Graph::from_edges(n, edges);
}

Graph make_spider(int legs, NodeId leg_len) {
  CKP_CHECK(legs >= 1);
  CKP_CHECK(leg_len >= 1);
  const NodeId n = 1 + static_cast<NodeId>(legs) * leg_len;
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  NodeId next = 1;
  for (int l = 0; l < legs; ++l) {
    NodeId prev = 0;
    for (NodeId i = 0; i < leg_len; ++i) {
      edges.emplace_back(prev, next);
      prev = next++;
    }
  }
  return Graph::from_edges(n, edges);
}

bool is_tree(const Graph& g) {
  const NodeId n = g.num_nodes();
  if (n == 0) return false;
  if (g.num_edges() != n - 1) return false;
  // Connectivity by BFS from 0.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = 1;
  NodeId reached = 1;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (NodeId u : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        ++reached;
        q.push(u);
      }
    }
  }
  return reached == n;
}

std::vector<NodeId> root_tree(const Graph& g, NodeId root) {
  const NodeId n = g.num_nodes();
  CKP_CHECK(root >= 0 && root < n);
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kInvalidNode);
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::queue<NodeId> q;
  q.push(root);
  seen[static_cast<std::size_t>(root)] = 1;
  NodeId reached = 1;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (NodeId u : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        parent[static_cast<std::size_t>(u)] = v;
        ++reached;
        q.push(u);
      }
    }
  }
  CKP_CHECK_MSG(reached == n, "root_tree requires a connected graph");
  return parent;
}

namespace {

// Returns {farthest node, its distance} from `src` by BFS.
std::pair<NodeId, int> bfs_farthest(const Graph& g, NodeId src) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> q;
  q.push(src);
  dist[static_cast<std::size_t>(src)] = 0;
  NodeId far = src;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    if (dist[static_cast<std::size_t>(v)] >
        dist[static_cast<std::size_t>(far)]) {
      far = v;
    }
    for (NodeId u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] < 0) {
        dist[static_cast<std::size_t>(u)] =
            dist[static_cast<std::size_t>(v)] + 1;
        q.push(u);
      }
    }
  }
  return {far, dist[static_cast<std::size_t>(far)]};
}

}  // namespace

int tree_diameter(const Graph& g) {
  CKP_CHECK(is_tree(g));
  const auto [far, unused] = bfs_farthest(g, 0);
  (void)unused;
  return bfs_farthest(g, far).second;
}

}  // namespace ckp
