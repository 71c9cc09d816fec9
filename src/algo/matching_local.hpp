// Engine ports of maximal matching with packed one-word node states.
//
// Unlike the array versions (matching_randomized / matching_deterministic),
// which materialize the line graph or per-edge arrays, these run the
// *node*-level engine on G directly: each node simulates its incident edges
// through a handshake protocol — every unmatched node proposes its best live
// incident edge, and an edge joins the matching exactly when both endpoints
// propose it. One proposal/resolve pair costs two engine rounds, matching
// the O(1)-rounds-per-line-graph-round simulation the array versions charge.
//
// matching_randomized_local is RandLOCAL. Edge randomness is drawn
// statelessly — draw(e, t) = mix_seed(seed, label(e), t) — so both endpoints
// of an edge compute the same value with no communication (the standard
// "one endpoint draws on the edge's behalf" convention, collapsed to a
// shared hash) instead of the per-node NodeEnv::draw. Edge labels are the
// edge indices, synthesized internally; the proposal field caps m at 2^26
// edges.
//
// matching_deterministic_local is DetLOCAL: nodes publish their IDs and
// greedily match the lexicographically smallest live incident edge
// (priority = (min ID, max ID)), which needs no randomness and terminates
// in O(longest increasing edge-priority chain) proposal rounds; `completed`
// reports whether the cap sufficed. IDs must be unique and < 2^28 so an
// edge priority packs into one word.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

struct MatchingLocalResult {
  std::vector<char> in_matching;  // per edge
  int rounds = 0;
  bool completed = true;  // false if max_rounds was hit
  std::uint64_t engine_bytes = 0;
};

// RandLOCAL (ids must be empty; edge_labels must be empty — they are
// synthesized). Requires num_edges < 2^26.
MatchingLocalResult matching_randomized_local(const LocalInput& input,
                                              int max_rounds = 1 << 20,
                                              const EngineOptions& options = {});

// DetLOCAL (ids required, unique, < 2^28).
MatchingLocalResult matching_deterministic_local(
    const LocalInput& input, int max_rounds = 1 << 20,
    const EngineOptions& options = {});

}  // namespace ckp
