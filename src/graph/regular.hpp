// Random regular graphs, including the edge-colored high-girth instances
// that drive the lower-bound experiments (Section IV of the paper).
//
// Substitution note (documented in DESIGN.md): the paper cites explicit
// constructions (Dahan '14, Bollobás) of Δ-regular bipartite graphs with
// girth Ω(log_Δ n). We use random Δ-regular bipartite graphs built as the
// union of Δ disjoint random perfect matchings. These have girth Θ(log_Δ n)
// with high probability; the benchmark harness *measures* the girth of every
// instance rather than assuming it. The matching decomposition doubles as a
// proper Δ-edge coloring, which the Δ-sinkless problems take as input.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ckp {

// A graph together with a proper edge coloring using colors [0, num_colors).
struct EdgeColoredGraph {
  Graph graph;
  std::vector<int> edge_color;  // indexed by EdgeId
  int num_colors = 0;
};

// Random d-regular simple graph on n nodes via the pairing (configuration)
// model with whole-graph restarts on collisions. Requires n*d even, d < n.
Graph make_random_regular(NodeId n, int d, Rng& rng);

// Random d-regular bipartite simple graph on 2*side nodes (left: [0, side)),
// as the union of d random perfect matchings; matching index = edge color.
// Requires d <= side. This is make_random_bipartite_regular_streamed on one
// thread.
EdgeColoredGraph make_random_bipartite_regular(NodeId side, int d, Rng& rng);

// The bipartite-regular generator, engineered for 10^7–10^8-node
// instances: each matching is generated *in place* in the
// final CSR adjacency array (color c's permutation lives in the strided
// slots adjacency[i*d + c]), so there are no intermediate edge vectors, no
// builder hash sets, and no O(m) temporaries — peak memory is the final
// graph plus O(shard_nodes) per worker. Collision repair tests membership
// by scanning the <= d-1 earlier color slots of a row instead of a hash
// set. The RNG-consuming phase is sequential; the finalize/sort passes run
// blocked by `shard_nodes` CSR rows across `threads` workers (0 = the
// --threads default). The result is a deterministic function of (side, d,
// rng state) alone — bit-identical for every shard_nodes and threads value.
// Requires d <= side and shard_nodes >= 1.
// Degrees near `side` (dense bipartite graphs) push the per-color collision
// repair toward Latin-square completion, where random re-probing may not
// converge; keep d well below side (the scale bench sweeps d <= 16).
EdgeColoredGraph make_random_bipartite_regular_streamed(NodeId side, int d,
                                                        Rng& rng,
                                                        NodeId shard_nodes,
                                                        int threads = 0);

// Deterministic 3-regular high-girth-ish test fixture: the prism/Moebius
// ladder on 2k nodes (cycle of length 2k plus diagonals). Girth is small
// (3 or 4); used only as a structured 3-regular fixture in tests.
Graph make_moebius_ladder(NodeId k);

// Verifies that `edge_color` is a proper edge coloring of g (no two edges
// sharing an endpoint have the same color, all colors within range).
bool is_proper_edge_coloring(const Graph& g, const std::vector<int>& edge_color,
                             int num_colors);

}  // namespace ckp
