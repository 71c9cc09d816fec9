// Ghaffari-style randomized MIS with explicit graph shattering.
//
// Phase 1 (O(log Δ) + c iterations): every undecided node holds a desire
// level p_v (initially 1/2), marks itself with probability p_v, joins the
// MIS when marked with no marked neighbor, and adjusts p_v by its effective
// degree (sum of undecided neighbors' desires): halve when >= 2, else
// double (capped at 1/2).
//
// Phase 2 (shattering): the undecided residue has only small connected
// components w.h.p.; a deterministic MIS (mis_deterministic) finishes them
// using locally generated random IDs (unique w.h.p. — exactly the reduction
// the paper describes for RandLOCAL). The result records the residue size
// and largest component, which bench_mis and bench_shattering report: this
// is the graph-shattering phenomenon Theorem 3 proves unavoidable.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

struct GhaffariMisParams {
  // Phase 1 iterations; <= 0 means the default 2·ceil(log2(Δ+1)) + 6.
  int phase1_iterations = 0;
};

struct GhaffariMisResult {
  std::vector<char> in_set;
  int rounds = 0;
  int phase1_rounds = 0;
  NodeId residue_nodes = 0;             // undecided after Phase 1
  NodeId largest_residue_component = 0;  // shattering quality
};

GhaffariMisResult mis_ghaffari(const Graph& g, std::uint64_t seed,
                               RoundLedger& ledger,
                               const GhaffariMisParams& params = {});

// Engine port of the same algorithm with a packed state (one 8-byte
// word per node; DESIGN.md §11). Phase 1 runs desire-level marking for
// 2·iterations rounds; the phase-2 residue finishes with random 50-bit
// priorities (greedy local-max with tie redraws) instead of the array
// version's deterministic-MIS subroutine — same shattering structure, and
// the residue is still measured. RandLOCAL only (ids must be empty).
struct GhaffariLocalResult {
  std::vector<char> in_set;
  int rounds = 0;            // engine rounds consumed
  int phase1_rounds = 0;     // rounds spent before the phase-2 handoff
  NodeId residue_nodes = 0;  // nodes that reached phase 2 (shattering size)
  NodeId largest_residue_component = 0;
  bool completed = true;  // false if max_rounds was hit
  std::uint64_t engine_bytes = 0;
};

GhaffariLocalResult mis_ghaffari_local(const LocalInput& input,
                                       int max_rounds = 1 << 20,
                                       const EngineOptions& options = {},
                                       const GhaffariMisParams& params = {});

}  // namespace ckp
