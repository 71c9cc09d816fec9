// The node program behind plus_one_local (the (Δ+1) trial coloring). It
// lives in this private header so that the tests can also run it on the
// naive reference engine (tests/reference_engine.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "local/engine.hpp"

namespace ckp::detail {

// Packed word for the engine port, one u64 per node:
//
//   [5:0] candidate color (while trying) / final color (once decided)
//   [6]   decided (terminal; the node halts the round it sets this)
//   [7]   trying: the word carries this iteration's candidate
//
// Try round: an undecided node removes decided neighbors' colors from the
// palette and draws a uniform candidate from what is left (never empty with
// palette >= Δ+1: at most deg <= Δ colors are taken). Resolve round: the
// candidate sticks unless a trying neighbor drew the same one (both sides
// retry — the conflict test is symmetric, preserving lockstep). One keyed
// draw per try round, so results are bit-identical across thread counts
// and schedulers.
constexpr std::uint64_t kPoColorMask = 0x3F;
constexpr std::uint64_t kPoDecidedBit = 1ULL << 6;
constexpr std::uint64_t kPoTryingBit = 1ULL << 7;

struct PlusOneLocalAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  int palette = 0;  // read-only config; in [1, 64]

  State init(const NodeEnv&) { return {0}; }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    if (w & kPoDecidedBit) return true;
    if ((w & kPoTryingBit) == 0) {
      // Try round.
      std::uint64_t used = 0;
      for (const State* nb : nbrs) {
        const std::uint64_t nw = nb->word;
        if (nw & kPoDecidedBit) used |= 1ULL << (nw & kPoColorMask);
      }
      const std::uint64_t avail =
          (palette >= 64 ? ~0ULL : (1ULL << palette) - 1) & ~used;
      CKP_DCHECK(avail != 0);
      const int pick = static_cast<int>(env.draw_below(
          0, static_cast<std::uint64_t>(std::popcount(avail))));
      // Select the pick-th set bit of the availability mask.
      std::uint64_t mask = avail;
      for (int i = 0; i < pick; ++i) mask &= mask - 1;
      const auto color =
          static_cast<std::uint64_t>(std::countr_zero(mask));
      self.word = kPoTryingBit | color;
      return false;
    }
    // Resolve round.
    const std::uint64_t my_color = w & kPoColorMask;
    for (const State* nb : nbrs) {
      const std::uint64_t nw = nb->word;
      if ((nw & kPoTryingBit) && !(nw & kPoDecidedBit) &&
          (nw & kPoColorMask) == my_color) {
        self.word = 0;
        return false;
      }
    }
    self.word = kPoDecidedBit | my_color;
    return true;
  }
};

}  // namespace ckp::detail
