// The node program behind mis_luby (Luby's MIS). It lives in this private
// header so that the tests can also run it on the naive reference engine
// (tests/reference_engine.hpp).
#pragma once

#include <cstdint>
#include <span>

#include "local/engine.hpp"

namespace ckp::detail {

// Single 64-bit word per node: [60:0] the current draw, [61] whether the
// draw belongs to the current iteration, [63:62] status (0 = undecided,
// 1 = in MIS, 2 = retired). One word halves the state traffic of the
// 16-byte layout — per round the engine copies and gathers these words, so
// width is the dominant cost at 10^7+ nodes. Draws compare at 61 bits; a
// tie (probability 2^-61 per adjacent pair per iteration) keeps both nodes
// out of this iteration, which is safe.
constexpr std::uint64_t kDrawMask = (1ULL << 61) - 1;
constexpr std::uint64_t kValidBit = 1ULL << 61;
constexpr int kStatusShift = 62;
constexpr std::uint64_t kInMis = 1;
constexpr std::uint64_t kRetired = 2;

struct LubyAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  State init(const NodeEnv& env) {
    // First exchange happens in step(); draw now so round 1 can compare.
    return {kValidBit | (env.draw(0) & kDrawMask)};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    if ((w >> kStatusShift) != 0) return true;
    if (w & kValidBit) {
      // Decision sub-round: compare with neighbor draws published last
      // round. Bits [63:61] == 001 is exactly "undecided with a live draw".
      const std::uint64_t my_draw = w & kDrawMask;
      bool local_min = true;
      for (const State* nb : nbrs) {
        const std::uint64_t nw = nb->word;
        if ((nw >> 61) == 1 && (nw & kDrawMask) <= my_draw) {
          local_min = false;
          break;
        }
      }
      if (local_min) {
        self.word = kInMis << kStatusShift;
        return true;
      }
      self.word = my_draw;  // publish "no draw" so neighbors resync
      return false;
    }
    // Reaction sub-round: retire next to a new MIS member, else redraw.
    for (const State* nb : nbrs) {
      if ((nb->word >> kStatusShift) == kInMis) {
        self.word = kRetired << kStatusShift;
        return true;
      }
    }
    self.word = kValidBit | (env.draw(0) & kDrawMask);
    return false;
  }
};

}  // namespace ckp::detail
