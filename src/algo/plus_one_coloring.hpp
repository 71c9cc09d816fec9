// (Δ+1)-coloring — the introduction's central problem family.
//
// Randomized trial coloring: every uncolored vertex draws a uniformly
// random candidate from its current available palette (palette minus the
// colors fixed at neighbors) and keeps it unless an uncolored neighbor drew
// the same candidate. Each vertex succeeds with constant probability per
// iteration, so O(log n) iterations finish everything w.h.p.
//
// Shattering hybrid (the [14]/BEPS pattern Theorem 3 proves necessary):
// stop the randomized phase after O(log Δ)+O(1) iterations — the residue
// then has only small components w.h.p. — and finish deterministically by
// schedule-driven greedy list coloring (with palette Δ+1 every vertex always
// has a free color, so the finish never fails regardless of shattering
// quality; shattering only controls the *time*).
//
// The deterministic baseline is Theorem 2 + blocked palette reduction:
// O(Δ log Δ + log* n) rounds.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

struct PlusOneParams {
  // 0 = run the randomized phase to completion (O(log n) w.h.p.);
  // > 0 = stop after this many iterations and finish deterministically.
  int shatter_iterations = 0;
  int max_iterations = 1 << 20;
};

struct PlusOneResult {
  std::vector<int> colors;  // proper (delta+1)-coloring
  int rounds = 0;
  int randomized_iterations = 0;
  NodeId residue_nodes = 0;              // uncolored when the phase stopped
  NodeId largest_residue_component = 0;  // shattering quality
  bool completed = true;
};

// RandLOCAL (Δ+1)-coloring; delta >= Δ(G).
PlusOneResult plus_one_coloring_randomized(const Graph& g, int delta,
                                           std::uint64_t seed,
                                           RoundLedger& ledger,
                                           const PlusOneParams& params = {});

// DetLOCAL baseline: Theorem 2 coloring reduced to Δ+1 colors.
PlusOneResult plus_one_coloring_deterministic(
    const Graph& g, const std::vector<std::uint64_t>& ids, int delta,
    RoundLedger& ledger);

// Engine port of the randomized trial coloring with a packed state (one
// 8-byte word per node; DESIGN.md §11). Runs the randomized phase to
// completion — two engine rounds per trial iteration. RandLOCAL only;
// `palette` (default Δ+1) is capped at 64 so the availability mask is one
// word.
struct PlusOneLocalResult {
  std::vector<int> colors;
  int rounds = 0;
  bool completed = true;  // false if max_rounds was hit
  std::uint64_t engine_bytes = 0;
};

PlusOneLocalResult plus_one_local(const LocalInput& input, int palette = 0,
                                  int max_rounds = 1 << 20,
                                  const EngineOptions& options = {});

}  // namespace ckp
