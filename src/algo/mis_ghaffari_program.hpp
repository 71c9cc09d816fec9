// The node program behind mis_ghaffari_local (Ghaffari's MIS). It lives in
// this private header so that the tests can also run it on the naive
// reference engine (tests/reference_engine.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "local/engine.hpp"

namespace ckp::detail {

// Packed word for the engine port, one u64 per node:
//
//   [63:62] status (0 undecided, 1 in MIS, 2 retired)
//   [61]    phase-2 flag, sticky through halt (residue measurement)
//   [60]    mark-valid: the word carries this iteration's mark bit
//   [59]    marked
//   [57:50] phase-1 iteration counter (caps iterations at 255)
//   [49:0]  phase-2 priority   } disjoint in time: desire is phase 1,
//   [5:0]   desire exponent k  } priority is phase 2
//
// Desire levels are dyadic: desire = 2^-(k+1), k in [0, kGhMaxDesireExp],
// so "halve" is k+1, "double capped at 1/2" is max(k-1, 0), and a mark is
// drawn with exactly one keyed draw by testing its top k+1 bits for zero.
// The effective degree is summed in 2^31 fixed point (desire contributes
// 1 << (30-k); exponents past 30 contribute nothing, which only biases
// toward doubling desires that are already < 2^-31).
// Everything is integer arithmetic, so results are bit-identical across
// paths, thread counts, and schedulers.
constexpr int kGhStatusShift = 62;
constexpr std::uint64_t kGhInMis = 1;
constexpr std::uint64_t kGhRetired = 2;
constexpr std::uint64_t kGhPhase2Bit = 1ULL << 61;
constexpr std::uint64_t kGhValidBit = 1ULL << 60;
constexpr std::uint64_t kGhMarkedBit = 1ULL << 59;
constexpr int kGhIterShift = 50;
constexpr std::uint64_t kGhIterMask = 0xFF;
constexpr std::uint64_t kGhPrioMask = (1ULL << 50) - 1;
constexpr std::uint64_t kGhDesireMask = 0x3F;
constexpr std::uint64_t kGhMaxDesireExp = 40;
constexpr std::uint64_t kGhEffThreshold = 1ULL << 32;  // 2.0 in 2^31 fixed pt

struct GhaffariLocalAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  // Phase-1 iteration budget; read-only config (steps must not mutate
  // shared members — engine contract).
  int iterations = 0;

  State init(const NodeEnv&) {
    // k = 0 (desire 1/2), iteration 0, no valid mark: round 1 is a mark
    // round.
    return {0};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    if ((w >> kGhStatusShift) != 0) return true;
    if (w & kGhPhase2Bit) {
      // Phase-2 round: retire next to a MIS member; join on strict local
      // max priority; redraw on a tie (fixed priorities could deadlock).
      const std::uint64_t my_prio = w & kGhPrioMask;
      bool is_max = true;
      bool tied = false;
      for (const State* nb : nbrs) {
        const std::uint64_t nw = nb->word;
        if ((nw >> kGhStatusShift) == kGhInMis) {
          self.word = (kGhRetired << kGhStatusShift) | kGhPhase2Bit;
          return true;
        }
        if ((nw >> kGhStatusShift) != 0 || !(nw & kGhPhase2Bit)) continue;
        const std::uint64_t p = nw & kGhPrioMask;
        if (p > my_prio) is_max = false;
        if (p == my_prio) tied = true;
      }
      if (tied) {
        self.word = kGhPhase2Bit | (env.draw(0) & kGhPrioMask);
        return false;
      }
      if (is_max) {
        self.word = (kGhInMis << kGhStatusShift) | kGhPhase2Bit;
        return true;
      }
      return false;
    }
    if ((w & kGhValidBit) == 0) {
      // Mark round. React to joins of the previous resolve round first.
      for (const State* nb : nbrs) {
        if ((nb->word >> kGhStatusShift) == kGhInMis) {
          self.word = kGhRetired << kGhStatusShift;
          return true;
        }
      }
      const std::uint64_t it = (w >> kGhIterShift) & kGhIterMask;
      if (it >= static_cast<std::uint64_t>(iterations)) {
        // Phase-1 budget exhausted: this node is residue. Draw a phase-2
        // priority and hand off.
        self.word = kGhPhase2Bit | (env.draw(0) & kGhPrioMask);
        return false;
      }
      const std::uint64_t k = w & kGhDesireMask;
      const std::uint64_t marked =
          (env.draw(0) >> (63 - k)) == 0 ? kGhMarkedBit : 0;
      self.word = (it << kGhIterShift) | kGhValidBit | marked | k;
      return false;
    }
    // Resolve round: join when marked and alone; update desire from the
    // effective degree of undecided neighbors (their marks and exponents
    // were published in the mark round).
    const std::uint64_t k = w & kGhDesireMask;
    bool join = (w & kGhMarkedBit) != 0;
    std::uint64_t eff = 0;
    for (const State* nb : nbrs) {
      const std::uint64_t nw = nb->word;
      if ((nw >> kGhStatusShift) != 0 || !(nw & kGhValidBit)) continue;
      if (nw & kGhMarkedBit) join = false;
      const std::uint64_t nk = nw & kGhDesireMask;
      if (nk <= 30) eff += 1ULL << (30 - nk);
    }
    if (join) {
      self.word = kGhInMis << kGhStatusShift;
      return true;
    }
    const std::uint64_t next_k = eff >= kGhEffThreshold
                                     ? std::min(k + 1, kGhMaxDesireExp)
                                     : (k > 0 ? k - 1 : 0);
    const std::uint64_t it = ((w >> kGhIterShift) & kGhIterMask) + 1;
    self.word = (it << kGhIterShift) | next_k;
    return false;
  }
};

}  // namespace ckp::detail
