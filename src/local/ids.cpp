#include "local/ids.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_set>

#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {

std::vector<std::uint64_t> sequential_ids(NodeId n) {
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) ids[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(v);
  return ids;
}

std::vector<std::uint64_t> random_ids(NodeId n, int bits, Rng& rng) {
  CKP_CHECK(bits >= 1 && bits <= 63);
  const std::uint64_t space = 1ULL << bits;
  CKP_CHECK_MSG(space >= static_cast<std::uint64_t>(n),
                "ID space too small for " << n << " distinct IDs");
  std::unordered_set<std::uint64_t> used;
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
  for (auto& id : ids) {
    std::uint64_t candidate;
    do {
      candidate = rng.next_below(space);
    } while (!used.insert(candidate).second);
    id = candidate;
  }
  return ids;
}

namespace {

std::vector<NodeId> bfs_order(const Graph& g, NodeId root) {
  const NodeId n = g.num_nodes();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  std::queue<NodeId> q;
  // Cover all components, starting from `root`.
  auto push = [&](NodeId v) {
    seen[static_cast<std::size_t>(v)] = 1;
    q.push(v);
  };
  push(root);
  for (NodeId scan = 0; scan <= n; ++scan) {
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      order.push_back(v);
      for (NodeId u : g.neighbors(v)) {
        if (!seen[static_cast<std::size_t>(u)]) push(u);
      }
    }
    if (scan < n && !seen[static_cast<std::size_t>(scan)]) push(scan);
  }
  CKP_CHECK(order.size() == static_cast<std::size_t>(n));
  return order;
}

}  // namespace

std::vector<std::uint64_t> bfs_order_ids(const Graph& g, NodeId root) {
  const auto order = bfs_order(g, root);
  std::vector<std::uint64_t> ids(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ids[static_cast<std::size_t>(order[i])] = i;
  }
  return ids;
}

std::vector<std::uint64_t> reverse_bfs_order_ids(const Graph& g, NodeId root) {
  const auto order = bfs_order(g, root);
  std::vector<std::uint64_t> ids(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ids[static_cast<std::size_t>(order[i])] = order.size() - 1 - i;
  }
  return ids;
}

int id_bit_length(const std::vector<std::uint64_t>& ids) {
  std::uint64_t mx = 0;
  for (auto id : ids) mx = std::max(mx, id);
  return mx == 0 ? 1 : ilog2(mx) + 1;
}

bool ids_unique(const std::vector<std::uint64_t>& ids) {
  // Strictly increasing IDs (sequential_ids, the usual DetLOCAL input) are
  // distinct: one allocation-free pass. Anything else sorts a copy.
  if (std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) ==
      ids.end()) {
    return true;
  }
  std::vector<std::uint64_t> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace ckp
