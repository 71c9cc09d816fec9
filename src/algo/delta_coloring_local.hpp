// Engine ports of the paper's Δ-coloring algorithms (Theorems 10 and 11)
// on the engine: one phase-tagged 8-byte word per node, palette
// Ψ_i represented implicitly through neighbors' taken colors, and the
// reserved-palette Phase 2 running as a phase transition inside the same
// word (DESIGN.md §14).
//
// These are engine-native *variants* of the retained `src/core/`
// references, the same way `mis_ghaffari_local` relates to `mis_ghaffari`:
// every decision is a function of the node's own word, its keyed draws,
// and neighbors' published words, so results are bit-identical across
// threads × schedulers and to the naive reference engine the tests run.
// They are NOT draw-identical to the `src/core/` monoliths (those draw
// from per-node RNG streams and use global
// subroutines — induced subgraphs, retry-until-unique IDs — that no 8-byte
// local machine can replicate); the differential tests check the semantic
// contract instead: verified proper Δ-colorings, the same palette
// structure, and the same shattering statistics definitions.
//
//   thm10: ColorBidding/Filtering over the palette {0..Δ-⌊√Δ⌋-1}. Each
//   iteration is a bid round (uniform color from the implicit Ψ) and a
//   resolve round (take the bid if no active neighbor bid it). The
//   reference's Filtering thresholds — driven by the same c_i schedule —
//   mark slow vertices *bad*; bad vertices wait for the globally last
//   possible arrival, then 2-color themselves from the ⌊√Δ⌋ reserved
//   colors by rake order (forest peeling) inside the same word.
//
//   thm11: MIS peeling for colors Δ-1 down to 3 (per-node asynchronous:
//   fresh random rank each round, join on strict local minimum, advance on
//   seeing the iteration's color), then the S / U3 classification and the
//   same rake machine: S 3-colors from {0,1,2}; U3 waits for its S
//   neighbors and always finds a free color in {0,1,2} (its uncolored
//   degree at the handoff is <= 2 and phase-1 colors are >= 3).
//
// Both require a forest (the rake phase peels leaves; on a cyclic input
// the peel stalls and the run ends at max_rounds with completed=false).
// RandLOCAL only: inputs must carry no IDs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/delta_coloring_thm10.hpp"  // Thm10Params (shared schedule)
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

struct Thm10LocalResult {
  std::vector<int> colors;  // proper Δ-coloring, values [0, Δ); -1 = none
  int rounds = 0;           // engine rounds consumed
  int phase1_iterations = 0;  // t from the c_i schedule
  NodeId bad_vertices = 0;    // nodes filtered into Phase 2 (sticky bit)
  NodeId largest_bad_component = 0;
  bool completed = true;  // false if max_rounds was hit
  std::uint64_t engine_bytes = 0;
};

// Requires: no IDs, forest input, 16 <= Δ <= 511 (9-bit color field), and
// the schedule length t <= 127 (7-bit iteration field; the default
// Thm10Params cap is 64).
Thm10LocalResult delta_coloring_thm10_local(const LocalInput& input,
                                            int max_rounds = 1 << 20,
                                            const EngineOptions& options = {},
                                            const Thm10Params& params = {});

struct Thm11LocalResult {
  std::vector<int> colors;  // proper Δ-coloring, values [0, Δ); -1 = none
  int rounds = 0;
  NodeId phase2_set_size = 0;  // |S| (uncolored, 3 uncolored neighbors)
  NodeId phase2_largest_component = 0;
  NodeId phase3_set_size = 0;  // |U3| (uncolored, <= 2 uncolored neighbors)
  bool completed = true;
  std::uint64_t engine_bytes = 0;
};

// Requires: no IDs, forest input, 7 <= Δ <= 511.
Thm11LocalResult delta_coloring_thm11_local(const LocalInput& input,
                                            int max_rounds = 1 << 20,
                                            const EngineOptions& options = {});

}  // namespace ckp
