// The node program behind greedy_color_local (greedy coloring by ID). It
// lives in this private header so that the tests can also run it on the
// naive reference engine (tests/reference_engine.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "local/engine.hpp"
#include "util/check.hpp"

namespace ckp::detail {

// Single 64-bit word per node: [47:0] the node's ID (its priority and its
// identity to neighbors — NodeEnv carries only a node's *own* ID, so the
// priority must travel in the published state), [53:48] the chosen color
// (palette <= 64, so 6 bits and every shift below stays < 64), [63]
// decided.
constexpr std::uint64_t kGcIdMask = (1ULL << 48) - 1;
constexpr int kGcColorShift = 48;
constexpr std::uint64_t kGcColorMask = 0x3F;
constexpr std::uint64_t kGcDecidedBit = 1ULL << 63;

struct GreedyColorAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  int palette = 0;  // read-only during the run

  State init(const NodeEnv& env) {
    CKP_CHECK_MSG(env.has_id(), "greedy_color_local is DetLOCAL: ids required");
    CKP_CHECK_MSG(env.id <= kGcIdMask,
                  "greedy_color_local supports ids < 2^48, got " << env.id);
    CKP_CHECK_MSG(env.degree < palette,
                  "palette " << palette << " too small for degree "
                             << env.degree);
    return {env.id};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    if (self.word & kGcDecidedBit) return true;
    const std::uint64_t my_id = self.word & kGcIdMask;
    std::uint64_t used = 0;  // colors of decided neighbors, as a bitmask
    std::uint64_t wait = 0;  // nonzero if an undecided neighbor outranks us
    for (const State* nb : nbrs) {
      const std::uint64_t w = nb->word;
      const std::uint64_t decided = w >> 63;  // kGcDecidedBit, as 0/1
      used |= (decided << ((w >> kGcColorShift) & kGcColorMask));
      wait |= (decided ^ 1) &
              static_cast<std::uint64_t>((w & kGcIdMask) > my_id);
    }
    if (wait != 0) return false;
    // Smallest color not used by any decided neighbor: at most degree <
    // palette <= 64 bits are set, so the first zero bit is always in range.
    const int c = std::countr_one(used);
    self.word = kGcDecidedBit |
                (static_cast<std::uint64_t>(c) << kGcColorShift) | my_id;
    return true;
  }
};

}  // namespace ckp::detail
