// Incremental edge-list accumulation with duplicate filtering.
//
// Generators add edges as they go; the builder keeps a hash set of seen
// edges so duplicate insertions are cheap no-ops and finalizes into an
// immutable Graph. The hash set costs one allocation per edge, so use the
// builder only when duplicates must be dropped or probed (random graphs,
// power and line graphs); a generator whose edges are unique by
// construction passes its EdgeList straight to Graph::from_edges.
#pragma once

#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace ckp {

class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n);

  NodeId num_nodes() const { return n_; }

  // Adds {u, v} if absent; returns true if the edge was new.
  // Self-loops are rejected with CheckFailure.
  bool add_edge(NodeId u, NodeId v);

  bool has_edge(NodeId u, NodeId v) const;

  std::size_t num_edges() const { return edges_.size(); }

  // Finalizes into a Graph. The builder may be reused afterwards.
  Graph build() const;

 private:
  static std::uint64_t key(NodeId u, NodeId v);

  NodeId n_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::unordered_set<std::uint64_t> seen_;
};

}  // namespace ckp
