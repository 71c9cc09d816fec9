#include "graph/regular.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ckp {

Graph make_random_regular(NodeId n, int d, Rng& rng) {
  CKP_CHECK(n >= 2);
  CKP_CHECK(d >= 1 && d < n);
  CKP_CHECK_MSG((static_cast<std::int64_t>(n) * d) % 2 == 0,
                "n*d must be even");
  // Pairing (configuration) model followed by double-edge-swap repair: a
  // whole-graph restart would succeed only with probability
  // ~exp(-(d²-1)/4), hopeless beyond d≈6, whereas repairing the few
  // self-loops/duplicates by degree-preserving swaps converges fast and
  // stays close to the uniform distribution (the standard practical
  // generator).
  const std::size_t stubs =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(d);
  std::vector<NodeId> stub(stubs);
  for (std::size_t i = 0; i < stubs; ++i) {
    stub[i] = static_cast<NodeId>(i / static_cast<std::size_t>(d));
  }
  for (std::size_t i = stubs - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i + 1));
    std::swap(stub[i], stub[j]);
  }
  std::vector<std::pair<NodeId, NodeId>> edges(stubs / 2);
  auto key = [](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  };
  std::unordered_multiset<std::uint64_t> seen;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i] = {stub[2 * i], stub[2 * i + 1]};
    seen.insert(key(edges[i].first, edges[i].second));
  }
  auto is_bad = [&](const std::pair<NodeId, NodeId>& e) {
    return e.first == e.second || seen.count(key(e.first, e.second)) > 1;
  };
  const std::size_t max_swaps = 1000 * stubs + 100000;
  std::size_t swaps = 0;
  for (bool any_bad = true; any_bad;) {
    any_bad = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!is_bad(edges[i])) continue;
      any_bad = true;
      // Swap with a uniformly random partner edge; accept only if both
      // replacement edges are simple.
      CKP_CHECK_MSG(++swaps < max_swaps, "edge-swap repair did not converge");
      const std::size_t j =
          static_cast<std::size_t>(rng.next_below(edges.size()));
      if (j == i) continue;
      auto [a, b] = edges[i];
      auto [c, e2] = edges[j];
      // Two ways to recombine; pick one at random.
      if (rng.next_bit()) std::swap(c, e2);
      const std::pair<NodeId, NodeId> n1{a, c};
      const std::pair<NodeId, NodeId> n2{b, e2};
      if (n1.first == n1.second || n2.first == n2.second) continue;
      const std::uint64_t k1 = key(n1.first, n1.second);
      const std::uint64_t k2 = key(n2.first, n2.second);
      if (seen.count(k1) > 0 || seen.count(k2) > 0 || k1 == k2) continue;
      seen.erase(seen.find(key(edges[i].first, edges[i].second)));
      seen.erase(seen.find(key(edges[j].first, edges[j].second)));
      edges[i] = n1;
      edges[j] = n2;
      seen.insert(k1);
      seen.insert(k2);
    }
  }
  return Graph::from_edges(n, edges);
}

EdgeColoredGraph make_random_bipartite_regular(NodeId side, int d, Rng& rng) {
  return make_random_bipartite_regular_streamed(side, d, rng, side, 1);
}

namespace {

// Runs `body(chunk_begin, chunk_end, chunk)` over `chunks` deterministic
// slices of [begin, end), on the shared pool when threads > 1 (work-stealing
// — the slices carry no RNG, so schedule and thread count cannot affect the
// output) and inline otherwise.
template <typename Body>
void for_each_shard(std::int64_t begin, std::int64_t end, int chunks,
                    int threads, const Body& body) {
  if (threads > 1 && !in_parallel_worker()) {
    shared_pool(threads).parallel_for_dynamic(begin, end, threads, chunks,
                                              body);
    return;
  }
  for (int c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ThreadPool::chunk_range(begin, end, chunks, c);
    body(lo, hi, c);
  }
}

}  // namespace

EdgeColoredGraph make_random_bipartite_regular_streamed(NodeId side, int d,
                                                        Rng& rng,
                                                        NodeId shard_nodes,
                                                        int threads) {
  CKP_CHECK(side >= 1);
  CKP_CHECK(d >= 1 && d <= side);
  CKP_CHECK_MSG(shard_nodes >= 1, "shard_nodes must be >= 1");
  CKP_CHECK_MSG(side <= (std::numeric_limits<NodeId>::max() - 1) / 2,
                "2*side overflows NodeId");
  const auto m = static_cast<std::size_t>(side) * static_cast<std::size_t>(d);
  CKP_CHECK_MSG(m <= static_cast<std::size_t>(
                         std::numeric_limits<EdgeId>::max()),
                "side*d overflows EdgeId");
  const NodeId n = 2 * side;
  if (threads <= 0) threads = default_engine_threads();

  // Final CSR storage, written in place: node v's row is [v*d, (v+1)*d) and
  // color c of every row lives at stride-d offset c. Left rows double as the
  // permutation arrays while a color is being generated.
  std::vector<NodeId> adjacency(2 * m);
  std::vector<EdgeId> incident(2 * m);
  std::vector<std::pair<NodeId, NodeId>> endpoints(m);
  const auto stride = static_cast<std::size_t>(d);
  auto slot = [&](NodeId v, int c) -> NodeId& {
    return adjacency[static_cast<std::size_t>(v) * stride +
                     static_cast<std::size_t>(c)];
  };

  for (int c = 0; c < d; ++c) {
    // Permutation for matching c, in the strided left-row slots. While raw
    // it holds right indices in [0, side); finished colors hold side + r,
    // so the two phases cannot be confused.
    for (NodeId i = 0; i < side; ++i) slot(i, c) = i;
    for (std::size_t i = static_cast<std::size_t>(side) - 1; i > 0; --i) {
      const auto j = static_cast<NodeId>(rng.next_below(i + 1));
      std::swap(slot(static_cast<NodeId>(i), c), slot(j, c));
    }
    // Collision repair: a fresh random permutation collides with the
    // earlier matchings ~c times in expectation, so instead of restarting,
    // swap a colliding perm[i] with a random partner (degree-preserving)
    // until none is left. Membership is a scan of the <= d-1 finished color
    // slots of the row — O(d) per probe, no auxiliary memory.
    auto taken = [&](NodeId i) {
      const NodeId want = side + slot(i, c);
      for (int cc = 0; cc < c; ++cc) {
        if (slot(i, cc) == want) return true;
      }
      return false;
    };
    std::size_t guard = 0;
    const std::size_t max_guard =
        1000 * static_cast<std::size_t>(side) + 100000;
    for (bool any = true; any;) {
      any = false;
      for (NodeId i = 0; i < side; ++i) {
        if (!taken(i)) continue;
        any = true;
        CKP_CHECK_MSG(++guard < max_guard, "matching repair did not converge");
        const auto j = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(side)));
        if (j == i) continue;
        std::swap(slot(i, c), slot(j, c));
        if (taken(i) || taken(j)) std::swap(slot(i, c), slot(j, c));
      }
    }
    // Finalize the color: convert raw right indices to node ids, mirror the
    // matching into the right-side rows, and record edge ids/endpoints
    // (edge c*side + i joins left i with its color-c partner). Shards are
    // independent — the permutation is a bijection, so every write lands in
    // a distinct slot — and consume no randomness.
    const int shards = static_cast<int>(
        (static_cast<std::int64_t>(side) + shard_nodes - 1) / shard_nodes);
    for_each_shard(
        0, side, shards, threads,
        [&](std::int64_t lo, std::int64_t hi, int) {
          for (std::int64_t ii = lo; ii < hi; ++ii) {
            const auto i = static_cast<NodeId>(ii);
            const NodeId r = slot(i, c);
            const auto e = static_cast<EdgeId>(
                static_cast<std::size_t>(c) * static_cast<std::size_t>(side) +
                static_cast<std::size_t>(i));
            slot(i, c) = side + r;
            incident[static_cast<std::size_t>(i) * stride +
                     static_cast<std::size_t>(c)] = e;
            slot(side + r, c) = i;
            incident[static_cast<std::size_t>(side + r) * stride +
                     static_cast<std::size_t>(c)] = e;
            endpoints[static_cast<std::size_t>(e)] = {i, side + r};
          }
        });
  }

  // Sort every row by neighbor id (incident stays aligned). Blocked by
  // shard_nodes rows; the per-shard scratch of d pairs is the only working
  // memory.
  {
    const int shards = static_cast<int>(
        (static_cast<std::int64_t>(n) + shard_nodes - 1) / shard_nodes);
    for_each_shard(
        0, n, shards, threads, [&](std::int64_t lo, std::int64_t hi, int) {
          std::vector<std::pair<NodeId, EdgeId>> seg(stride);
          for (std::int64_t v = lo; v < hi; ++v) {
            const std::size_t base = static_cast<std::size_t>(v) * stride;
            for (std::size_t k = 0; k < stride; ++k) {
              seg[k] = {adjacency[base + k], incident[base + k]};
            }
            std::sort(seg.begin(), seg.end());
            for (std::size_t k = 0; k < stride; ++k) {
              adjacency[base + k] = seg[k].first;
              incident[base + k] = seg[k].second;
            }
          }
        });
  }

  EdgeColoredGraph out;
  out.graph = Graph::from_regular_csr(n, d, std::move(adjacency),
                                      std::move(incident),
                                      std::move(endpoints));
  out.num_colors = d;
  // edge_color is e / side by construction; materialized color block by
  // color block (the coloring is proper because each color is a matching —
  // from_regular_csr has already validated the topology).
  out.edge_color.resize(m);
  for (int c = 0; c < d; ++c) {
    const auto lo = static_cast<std::size_t>(c) * static_cast<std::size_t>(side);
    std::fill(out.edge_color.begin() + static_cast<std::ptrdiff_t>(lo),
              out.edge_color.begin() +
                  static_cast<std::ptrdiff_t>(lo + static_cast<std::size_t>(side)),
              c);
  }
  return out;
}

Graph make_moebius_ladder(NodeId k) {
  CKP_CHECK(k >= 3);
  const NodeId n = 2 * k;
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n + k));
  for (NodeId v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  for (NodeId v = 0; v < k; ++v) edges.emplace_back(v, v + k);
  return Graph::from_edges(n, edges);
}

bool is_proper_edge_coloring(const Graph& g, const std::vector<int>& edge_color,
                             int num_colors) {
  if (edge_color.size() != static_cast<std::size_t>(g.num_edges())) return false;
  for (int c : edge_color) {
    if (c < 0 || c >= num_colors) return false;
  }
  // One flag per colour, shared by all nodes: each node clears only the
  // colours it set.
  std::vector<char> used(static_cast<std::size_t>(std::max(num_colors, 0)), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto edges = g.incident_edges(v);
    for (EdgeId e : edges) {
      const auto c = static_cast<std::size_t>(edge_color[static_cast<std::size_t>(e)]);
      if (used[c]) return false;
      used[c] = 1;
    }
    for (EdgeId e : edges) {
      used[static_cast<std::size_t>(edge_color[static_cast<std::size_t>(e)])] = 0;
    }
  }
  return true;
}

}  // namespace ckp
