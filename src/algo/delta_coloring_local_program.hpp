// The node programs behind delta_coloring_thm10_local and
// delta_coloring_thm11_local (the Theorem 10 and 11 Δ-colorings). They live
// in this private header so that the tests can also run them on the naive
// reference engine (tests/reference_engine.hpp).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/delta_coloring_thm10.hpp"
#include "local/engine.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp::detail {

// ---------------------------------------------------------------------------
// Theorem 10 — ColorBidding/Filtering + rake-ordered reserve coloring.
//
// Packed word, one u64 per node (DESIGN.md §14):
//
//   [63:62] status (0 active, 1 colored+halted, 2 bad-peeling, 3 bad-removed)
//   [61]    bid-valid (active lockstep: set on bid rounds, clear on resolve)
//   [60]    bad flag, sticky through coloring (shattering stats recovery)
//   [59:51] color: the bid on bid rounds, the final color once colored
//           (Δ <= 511; the all-ones value is the "null bid" that keeps an
//           empty-palette node in lockstep)
//   [50:44] completed phase-1 iterations (t <= 127)
//   bad-peeling:  [7:0]  wait countdown to the global phase-2 start
//   bad-removed:  [42:16] rake depth r, [15:0] tie-break token
//
// Phase 1 is a strict 2-round lockstep: odd rounds bid one uniform color
// from the implicit palette Ψ (all phase-1 colors minus colored neighbors'
// colors), even rounds take the bid if no active neighbor bid the same
// color (simultaneous takes are then never adjacent). The bid round also
// evaluates the reference's Filtering for the iteration that just resolved
// — Ψ and the active degree are recomputed fresh from the snapshot, which
// matches the reference's timing (filter(i) reads Ψ_{i+1} and N'_{i+1},
// with newly-bad neighbors still counted active, exactly as the array
// version's simultaneous filter pass does).
//
// A bad vertex idles until round 2t+3, when every possible arrival
// (including the forced round-t filter) is published, so the bad set is
// frozen before anyone peels. Phase 2 then rakes the bad forest: a node
// with <= 1 unremoved bad neighbor removes itself at depth r = 1 + max of
// its removed neighbors' depths, and colors from the ⌊√Δ⌋ reserved colors
// once every bad neighbor is either colored or removed with a strictly
// smaller (r, token). At most one bad neighbor can precede a node in that
// order (at removal time it had <= 1 neighbor at depth >= its own), so 2
// reserved colors always suffice and reserve >= 3 never runs dry. Equal
// (r, token) pairs redraw the token; the order is strict otherwise, so no
// two adjacent bad vertices ever color in the same round.
constexpr int kT10StatusShift = 62;
constexpr std::uint64_t kT10Active = 0;
constexpr std::uint64_t kT10Colored = 1;
constexpr std::uint64_t kT10BadPeel = 2;
constexpr std::uint64_t kT10BadRemoved = 3;
constexpr std::uint64_t kT10BidValidBit = 1ULL << 61;
constexpr std::uint64_t kT10BadBit = 1ULL << 60;
constexpr int kT10ColorShift = 51;
constexpr std::uint64_t kT10ColorMask = 0x1FF;
constexpr std::uint64_t kT10NullBid = 0x1FF;
constexpr int kT10IterShift = 44;
constexpr std::uint64_t kT10IterMask = 0x7F;
constexpr int kT10RShift = 16;
constexpr std::uint64_t kT10RMask = 0x7FFFFFF;
constexpr std::uint64_t kT10TokenMask = 0xFFFF;
constexpr std::uint64_t kT10WaitMask = 0xFF;
constexpr int kPsiWords = 8;  // 512 colors / 64

struct Thm10LocalAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  // Read-only config (engine contract: step must not mutate shared state).
  int delta = 0;
  int palette = 0;     // phase-1 palette size P = Δ - reserve
  int reserve = 0;     // reserved colors [P, P + reserve)
  int iterations = 0;  // t = schedule length
  double p1_threshold = 0.0;  // Δ/α
  std::vector<double> c;      // the c_i schedule, c[i-1] = c_i

  State init(const NodeEnv&) { return {0}; }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) const {
    const std::uint64_t w = self.word;
    const std::uint64_t status = w >> kT10StatusShift;
    if (status == kT10Colored) return true;

    if (status == kT10Active) {
      if (w & kT10BidValidBit) {
        // Resolve round: take the bid unless an active neighbor bid it too.
        const std::uint64_t bid = (w >> kT10ColorShift) & kT10ColorMask;
        const std::uint64_t it = (w >> kT10IterShift) & kT10IterMask;
        if (bid != kT10NullBid) {
          bool contested = false;
          for (const State* nb : nbrs) {
            const std::uint64_t nw = nb->word;
            if ((nw >> kT10StatusShift) != kT10Active) continue;
            if (!(nw & kT10BidValidBit)) continue;
            if (((nw >> kT10ColorShift) & kT10ColorMask) == bid) {
              contested = true;
              break;
            }
          }
          if (!contested) {
            self.word =
                (kT10Colored << kT10StatusShift) | (bid << kT10ColorShift);
            return true;
          }
        }
        self.word = it << kT10IterShift;
        return false;
      }

      // Bid round. Ψ and the active degree come fresh from the snapshot.
      const auto it =
          static_cast<int>((w >> kT10IterShift) & kT10IterMask);
      std::uint64_t psi[kPsiWords];
      const int words = (palette + 63) / 64;
      for (int i = 0; i < words; ++i) psi[i] = ~0ULL;
      if (palette % 64 != 0) psi[words - 1] = (1ULL << (palette % 64)) - 1;
      int active_nbrs = 0;
      for (const State* nb : nbrs) {
        const std::uint64_t nw = nb->word;
        const std::uint64_t ns = nw >> kT10StatusShift;
        if (ns == kT10Active) {
          ++active_nbrs;
        } else if (ns == kT10Colored) {
          const auto c_nb =
              static_cast<int>((nw >> kT10ColorShift) & kT10ColorMask);
          if (c_nb < palette) psi[c_nb >> 6] &= ~(1ULL << (c_nb & 63));
        }
      }
      int psi_count = 0;
      for (int i = 0; i < words; ++i) psi_count += std::popcount(psi[i]);

      if (it >= 1) {
        // Filtering(i) for the just-resolved iteration i = it.
        bool bad;
        if (it >= iterations) {
          bad = true;
        } else if (it == 1) {
          bad = static_cast<double>(psi_count - active_nbrs) < p1_threshold;
        } else {
          bad = static_cast<double>(active_nbrs) >
                static_cast<double>(delta) / c[static_cast<std::size_t>(it)];
        }
        if (bad) {
          const auto wait =
              static_cast<std::uint64_t>(2 * (iterations - it) + 1);
          self.word = (kT10BadPeel << kT10StatusShift) | kT10BadBit | wait;
          return false;
        }
      }

      std::uint64_t bid = kT10NullBid;
      if (psi_count > 0) {
        auto k = static_cast<int>(
            env.draw_below(0, static_cast<std::uint64_t>(psi_count)));
        for (int i = 0; i < words; ++i) {
          const int pc = std::popcount(psi[i]);
          if (k >= pc) {
            k -= pc;
            continue;
          }
          std::uint64_t x = psi[i];
          while (k-- > 0) x &= x - 1;
          bid = static_cast<std::uint64_t>(i * 64 + std::countr_zero(x));
          break;
        }
      }
      self.word = (static_cast<std::uint64_t>(it + 1) << kT10IterShift) |
                  kT10BidValidBit | (bid << kT10ColorShift);
      return false;
    }

    if (status == kT10BadPeel) {
      const std::uint64_t wait = w & kT10WaitMask;
      if (wait > 0) {
        self.word = (w & ~kT10WaitMask) | (wait - 1);
        return false;
      }
      int unremoved = 0;
      std::uint64_t max_r = 0;
      for (const State* nb : nbrs) {
        const std::uint64_t nw = nb->word;
        if (!(nw & kT10BadBit)) continue;
        const std::uint64_t ns = nw >> kT10StatusShift;
        if (ns == kT10BadPeel) {
          ++unremoved;
        } else if (ns == kT10BadRemoved) {
          max_r = std::max(max_r, (nw >> kT10RShift) & kT10RMask);
        }
      }
      if (unremoved <= 1) {
        const std::uint64_t r = max_r + 1;
        CKP_CHECK_MSG(r <= kT10RMask, "thm10 rake depth overflow");
        self.word = (kT10BadRemoved << kT10StatusShift) | kT10BadBit |
                    (r << kT10RShift) | (env.draw(0) & kT10TokenMask);
      }
      return false;
    }

    // Bad-removed: color once every bad neighbor is colored or strictly
    // smaller in (r, token); redraw the token on an exact tie.
    const std::uint64_t my_r = (w >> kT10RShift) & kT10RMask;
    const std::uint64_t my_token = w & kT10TokenMask;
    std::uint64_t used = 0;  // reserve <= 22 for Δ <= 511
    for (const State* nb : nbrs) {
      const std::uint64_t nw = nb->word;
      if (!(nw & kT10BadBit)) continue;
      const std::uint64_t ns = nw >> kT10StatusShift;
      if (ns == kT10BadPeel) return false;
      if (ns == kT10BadRemoved) {
        const std::uint64_t nr = (nw >> kT10RShift) & kT10RMask;
        const std::uint64_t ntok = nw & kT10TokenMask;
        if (nr > my_r || (nr == my_r && ntok > my_token)) return false;
        if (nr == my_r && ntok == my_token) {
          self.word = (w & ~kT10TokenMask) | (env.draw(0) & kT10TokenMask);
          return false;
        }
        continue;
      }
      const auto c_nb =
          static_cast<int>((nw >> kT10ColorShift) & kT10ColorMask);
      if (c_nb >= palette) used |= 1ULL << (c_nb - palette);
    }
    for (int c_pick = 0; c_pick < reserve; ++c_pick) {
      if ((used >> c_pick) & 1) continue;
      const auto color = static_cast<std::uint64_t>(palette + c_pick);
      self.word = (kT10Colored << kT10StatusShift) | kT10BadBit |
                  (color << kT10ColorShift);
      return true;
    }
    CKP_CHECK_MSG(false, "thm10 rake: no reserved color available");
    return false;
  }
};

// Mirror of the reference's anonymous-namespace schedule (the reference
// stays untouched as the differential oracle, so this is duplicated).
inline std::vector<double> thm10_c_schedule(int delta, const Thm10Params& p) {
  const double cap =
      std::max(2.0, std::pow(static_cast<double>(delta), p.cap_exponent));
  std::vector<double> c;
  c.push_back(1.0);
  c.push_back(p.alpha / (p.alpha - 1.0));
  while (c.back() < cap && static_cast<int>(c.size()) < p.max_iterations) {
    const double prev = c.back();
    c.push_back(std::min(cap, prev * std::exp(prev / p.growth_divisor)));
  }
  return c;
}

// The Theorem 10 program configured for degree bound `delta`.
inline Thm10LocalAlgo thm10_program(int delta, const Thm10Params& params) {
  Thm10LocalAlgo algo;
  algo.delta = delta;
  algo.reserve = static_cast<int>(isqrt(static_cast<std::uint64_t>(delta)));
  algo.palette = delta - algo.reserve;
  CKP_CHECK(algo.reserve >= 3 && algo.palette >= 1);
  algo.p1_threshold = static_cast<double>(delta) / params.alpha;
  algo.c = thm10_c_schedule(delta, params);
  algo.iterations = static_cast<int>(algo.c.size());
  CKP_CHECK_MSG(algo.iterations <= 127,
                "schedule length exceeds the 7-bit iteration field");
  return algo;
}

// ---------------------------------------------------------------------------
// Theorem 11 — asynchronous MIS peeling + the same rake machine for the
// S / U3 residue, palette {0,1,2}.
//
// Packed word (DESIGN.md §14):
//
//   [63:61] status (0 undecided, 1 colored+halted, 2 p1-waiting,
//                   3 member-waiting, 4 peeling, 5 removed)
//   [60]    in_S  } sticky classification bits, exactly one set from
//   [59]    in_U3 } member-waiting on; both survive coloring (stats)
//   [58:50] color (Δ <= 511)
//   undecided: [49] rank-valid, [48:40] iteration j, [31:0] rank
//   removed:   [42:16] rake depth r, [15:0] tie-break token
//
// Phase 1 runs per-node asynchronously: at iteration j (color c_j = Δ-j,
// j = 1..Δ-3) an undecided node publishes a fresh 32-bit rank every round;
// it advances to j+1 when a neighbor holds color c_j, and joins (takes
// c_j, halts) when its published rank is strictly below every same-j
// published neighbor rank (vacuously when alone). Two adjacent joins of
// the same color would need each rank strictly below the other, so color
// classes stay independent; and an uncolored survivor was dominated at
// every iteration, giving it Δ-3 distinctly-colored neighbors — the
// reference's "<= 3 uncolored neighbors" invariant, checked at
// classification.
//
// The handoff then synchronizes locally: p1-waiting until no neighbor is
// still undecided (freezing the uncolored degree), classify into S (3
// uncolored neighbors) or U3 (<= 2), member-waiting until every phase-2
// neighbor is classified (freezing the membership bits), then rake within
// the own class. S picks the smallest free color in {0,1,2} (only S
// neighbors can hold those). U3 additionally waits for its S neighbors to
// color and also picks from {0,1,2}: with k2 S-neighbors and k3
// U3-neighbors, k2 + k3 <= 2 and phase-1 colors are >= 3, so at least
// 3 - k2 - k3 >= 1 of {0,1,2} is always free — the packed counterpart of
// the reference's phase-3 availability argument.
constexpr int kT11StatusShift = 61;
constexpr std::uint64_t kT11Undecided = 0;
constexpr std::uint64_t kT11Colored = 1;
constexpr std::uint64_t kT11P1Wait = 2;
constexpr std::uint64_t kT11MemberWait = 3;
constexpr std::uint64_t kT11Peeling = 4;
constexpr std::uint64_t kT11Removed = 5;
constexpr std::uint64_t kT11InSBit = 1ULL << 60;
constexpr std::uint64_t kT11InU3Bit = 1ULL << 59;
constexpr std::uint64_t kT11SideMask = kT11InSBit | kT11InU3Bit;
constexpr int kT11ColorShift = 50;
constexpr std::uint64_t kT11ColorMask = 0x1FF;
constexpr std::uint64_t kT11RankValidBit = 1ULL << 49;
constexpr int kT11JShift = 40;
constexpr std::uint64_t kT11JMask = 0x1FF;
constexpr std::uint64_t kT11RankMask = 0xFFFFFFFF;
constexpr int kT11RShift = 16;
constexpr std::uint64_t kT11RMask = 0x7FFFFFF;
constexpr std::uint64_t kT11TokenMask = 0xFFFF;

struct Thm11LocalAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  int delta = 0;  // read-only config
  int jmax = 0;   // Δ - 3 peeling iterations

  State init(const NodeEnv&) {
    // Undecided at j = 1, no rank published yet.
    return {1ULL << kT11JShift};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) const {
    const std::uint64_t w = self.word;
    const std::uint64_t status = w >> kT11StatusShift;

    switch (status) {
      case kT11Colored:
        return true;

      case kT11Undecided: {
        const auto j = static_cast<int>((w >> kT11JShift) & kT11JMask);
        const auto target = static_cast<std::uint64_t>(delta - j);
        const bool have_rank = (w & kT11RankValidBit) != 0;
        const std::uint64_t my_rank = w & kT11RankMask;
        bool out_trigger = false;
        bool strict_min = true;
        for (const State* nb : nbrs) {
          const std::uint64_t nw = nb->word;
          const std::uint64_t ns = nw >> kT11StatusShift;
          if (ns == kT11Colored) {
            if (((nw >> kT11ColorShift) & kT11ColorMask) == target) {
              out_trigger = true;
              break;
            }
            continue;
          }
          if (!have_rank || ns != kT11Undecided) continue;
          if (!(nw & kT11RankValidBit)) continue;
          if (((nw >> kT11JShift) & kT11JMask) !=
              static_cast<std::uint64_t>(j)) {
            continue;
          }
          if ((nw & kT11RankMask) <= my_rank) strict_min = false;
        }
        if (out_trigger) {
          if (j + 1 > jmax) {
            self.word = kT11P1Wait << kT11StatusShift;
            return false;
          }
          self.word = (static_cast<std::uint64_t>(j + 1) << kT11JShift) |
                      kT11RankValidBit | (env.draw(0) & kT11RankMask);
          return false;
        }
        if (have_rank && strict_min) {
          self.word =
              (kT11Colored << kT11StatusShift) | (target << kT11ColorShift);
          return true;
        }
        self.word = (static_cast<std::uint64_t>(j) << kT11JShift) |
                    kT11RankValidBit | (env.draw(0) & kT11RankMask);
        return false;
      }

      case kT11P1Wait: {
        // The uncolored degree is frozen once no neighbor is undecided.
        int udeg = 0;
        for (const State* nb : nbrs) {
          const std::uint64_t nw = nb->word;
          const std::uint64_t ns = nw >> kT11StatusShift;
          if (ns == kT11Undecided) return false;
          const bool member =
              ns != kT11Colored || (nw & kT11SideMask) != 0;
          if (member) ++udeg;
        }
        CKP_CHECK_MSG(udeg <= 3,
                      "thm11 phase-1 invariant violated: uncolored degree "
                          << udeg);
        self.word = (kT11MemberWait << kT11StatusShift) |
                    (udeg == 3 ? kT11InSBit : kT11InU3Bit);
        return false;
      }

      case kT11MemberWait: {
        // Rake only once every phase-2 neighbor carries its side bit.
        for (const State* nb : nbrs) {
          if ((nb->word >> kT11StatusShift) == kT11P1Wait) return false;
        }
        self.word = (kT11Peeling << kT11StatusShift) | (w & kT11SideMask);
        return false;
      }

      case kT11Peeling: {
        const std::uint64_t my_side = w & kT11SideMask;
        int unremoved = 0;
        std::uint64_t max_r = 0;
        for (const State* nb : nbrs) {
          const std::uint64_t nw = nb->word;
          if (!(nw & my_side)) continue;
          const std::uint64_t ns = nw >> kT11StatusShift;
          if (ns == kT11MemberWait || ns == kT11Peeling) {
            ++unremoved;
          } else if (ns == kT11Removed) {
            max_r = std::max(max_r, (nw >> kT11RShift) & kT11RMask);
          }
        }
        if (unremoved <= 1) {
          const std::uint64_t r = max_r + 1;
          CKP_CHECK_MSG(r <= kT11RMask, "thm11 rake depth overflow");
          self.word = (kT11Removed << kT11StatusShift) | my_side |
                      (r << kT11RShift) | (env.draw(0) & kT11TokenMask);
        }
        return false;
      }

      default: {
        // Removed: color from {0,1,2} once every same-class neighbor is
        // colored or strictly smaller in (r, token); U3 additionally waits
        // for its S neighbors (their {0,1,2} colors must be known).
        const std::uint64_t my_side = w & kT11SideMask;
        const std::uint64_t my_r = (w >> kT11RShift) & kT11RMask;
        const std::uint64_t my_token = w & kT11TokenMask;
        std::uint64_t used = 0;
        for (const State* nb : nbrs) {
          const std::uint64_t nw = nb->word;
          const std::uint64_t ns = nw >> kT11StatusShift;
          if ((my_side == kT11InU3Bit) && (nw & kT11InSBit) &&
              ns != kT11Colored) {
            return false;
          }
          if (nw & my_side) {
            if (ns == kT11MemberWait || ns == kT11Peeling) return false;
            if (ns == kT11Removed) {
              const std::uint64_t nr = (nw >> kT11RShift) & kT11RMask;
              const std::uint64_t ntok = nw & kT11TokenMask;
              if (nr > my_r || (nr == my_r && ntok > my_token)) return false;
              if (nr == my_r && ntok == my_token) {
                self.word =
                    (w & ~kT11TokenMask) | (env.draw(0) & kT11TokenMask);
                return false;
              }
              continue;
            }
          }
          if (ns == kT11Colored) {
            const std::uint64_t c_nb = (nw >> kT11ColorShift) & kT11ColorMask;
            if (c_nb < 3) used |= 1ULL << c_nb;
          }
        }
        for (std::uint64_t c_pick = 0; c_pick < 3; ++c_pick) {
          if ((used >> c_pick) & 1) continue;
          self.word = (kT11Colored << kT11StatusShift) | my_side |
                      (c_pick << kT11ColorShift);
          return true;
        }
        CKP_CHECK_MSG(false, "thm11 rake: no color in {0,1,2} available");
        return false;
      }
    }
  }
};

}  // namespace ckp::detail
