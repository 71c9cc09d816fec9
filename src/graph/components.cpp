#include "graph/components.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace ckp {

NodeId Components::largest() const {
  if (size.empty()) return 0;
  return *std::max_element(size.begin(), size.end());
}

Components components_of_subset(const Graph& g,
                                const std::vector<char>& include) {
  const NodeId n = g.num_nodes();
  CKP_CHECK(include.size() == static_cast<std::size_t>(n));
  Components out;
  out.label.assign(static_cast<std::size_t>(n), -1);
  // One flat BFS queue for the whole pass: every node enters it at most
  // once, so component `comp` is the slice [first, queue.size()).
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(n));
  for (NodeId start = 0; start < n; ++start) {
    if (!include[static_cast<std::size_t>(start)] ||
        out.label[static_cast<std::size_t>(start)] != -1) {
      continue;
    }
    const int comp = out.count++;
    const std::size_t first = queue.size();
    queue.push_back(start);
    out.label[static_cast<std::size_t>(start)] = comp;
    for (std::size_t head = first; head < queue.size(); ++head) {
      for (NodeId u : g.neighbors(queue[head])) {
        if (include[static_cast<std::size_t>(u)] &&
            out.label[static_cast<std::size_t>(u)] == -1) {
          out.label[static_cast<std::size_t>(u)] = comp;
          queue.push_back(u);
        }
      }
    }
    out.size.push_back(static_cast<NodeId>(queue.size() - first));
  }
  return out;
}

Components connected_components(const Graph& g) {
  return components_of_subset(
      g, std::vector<char>(static_cast<std::size_t>(g.num_nodes()), 1));
}

}  // namespace ckp
