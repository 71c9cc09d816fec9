// The node program behind sinkless_local (sinkless orientation). It lives
// in this private header so that the tests can also run it on the naive
// reference engine (tests/reference_engine.hpp).
#pragma once

#include <cstdint>
#include <span>

#include "local/engine.hpp"

namespace ckp::detail {

// Single 64-bit word per node:
//   [31:0]  payload — the claim's 32-bit coin while unsatisfied, the winning
//           round ("generation", env.round) while satisfied;
//   [39:32] the claimed / owned edge color;
//   [60]    satisfied.
constexpr std::uint64_t kSoPayloadMask = 0xFFFFFFFFULL;
constexpr int kSoColorShift = 32;
constexpr std::uint64_t kSoColorMask = 0xFF;
constexpr std::uint64_t kSoSatBit = 1ULL << 60;

inline std::uint64_t color_of(std::uint64_t w) {
  return (w >> kSoColorShift) & kSoColorMask;
}

struct SinklessAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  State init(const NodeEnv& env) {
    // One draw: high half picks the initial claim port uniformly, low half
    // is the claim's coin.
    const std::uint64_t r = env.draw(0);
    const auto port = static_cast<std::size_t>(
        (r >> 32) % static_cast<std::uint64_t>(env.degree));
    const auto color =
        static_cast<std::uint64_t>(env.incident_edge_labels[port]);
    return {(color << kSoColorShift) | (r & kSoPayloadMask)};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    const std::span<const int> labels = env.incident_edge_labels;
    const std::uint64_t my_color = color_of(w);

    // The port carrying my claimed/owned color (unique: the coloring is
    // proper).
    std::size_t my_port = 0;
    while (static_cast<std::uint64_t>(labels[my_port]) != my_color) ++my_port;
    const std::uint64_t across = nbrs[my_port]->word;

    if (w & kSoSatBit) {
      // Theft check: a same-color satisfied neighbor across my out-edge with
      // a strictly newer generation stole it (strictness is sound: an edge
      // only becomes stealable after its owner was satisfied a full round,
      // so the thief's round exceeds the owner's generation).
      const bool stolen = (across & kSoSatBit) != 0 &&
                          color_of(across) == my_color &&
                          (across & kSoPayloadMask) > (w & kSoPayloadMask);
      if (!stolen) {
        std::uint64_t all_sat = kSoSatBit;
        for (const State* nb : nbrs) all_sat &= nb->word;
        return all_sat != 0;  // halt once nobody is left who could steal
      }
      return reclaim(self, env, nbrs);
    }

    // Resolve my pending claim against the neighbor across it. I lose to an
    // established owner, or to a contesting claim with coin >= mine (ties
    // lose both ways, so an edge never gains two same-round winners).
    bool lose;
    if (across & kSoSatBit) {
      lose = color_of(across) == my_color;
    } else {
      lose = color_of(across) == my_color &&
             (across & kSoPayloadMask) >= (w & kSoPayloadMask);
    }
    if (!lose) {
      self.word = kSoSatBit | (my_color << kSoColorShift) |
                  static_cast<std::uint64_t>(env.round);  // generation
      return false;  // stay awake to watch for theft
    }
    return reclaim(self, env, nbrs);
  }

 private:
  // A losing (or just-victimized) node draws one coin and claims a fresh
  // edge among the non-reserved ports; with every port reserved it is
  // deadlocked — all neighbors point at it — and steals a uniformly random
  // one instead.
  static bool reclaim(State& self, const NodeEnv& env,
                      std::span<const State* const> nbrs) {
    const std::span<const int> labels = env.incident_edge_labels;
    const std::uint64_t r = env.draw(0);
    const auto deg = static_cast<std::size_t>(env.degree);
    std::size_t claimable = 0;
    for (std::size_t k = 0; k < deg; ++k) {
      const std::uint64_t nb = nbrs[k]->word;
      const bool reserved =
          (nb & kSoSatBit) != 0 &&
          color_of(nb) == static_cast<std::uint64_t>(labels[k]);
      claimable += static_cast<std::size_t>(!reserved);
    }
    if (claimable == 0) {
      const auto steal = static_cast<std::size_t>(
          (r >> 32) % static_cast<std::uint64_t>(deg));
      const auto color = static_cast<std::uint64_t>(labels[steal]);
      self.word = kSoSatBit | (color << kSoColorShift) |
                  static_cast<std::uint64_t>(env.round);
      return false;
    }
    auto pick = static_cast<std::size_t>(
        (r >> 32) % static_cast<std::uint64_t>(claimable));
    std::size_t port = 0;
    for (std::size_t k = 0; k < deg; ++k) {
      const std::uint64_t nb = nbrs[k]->word;
      const bool reserved =
          (nb & kSoSatBit) != 0 &&
          color_of(nb) == static_cast<std::uint64_t>(labels[k]);
      if (reserved) continue;
      if (pick == 0) {
        port = k;
        break;
      }
      --pick;
    }
    const auto color = static_cast<std::uint64_t>(labels[port]);
    self.word = (color << kSoColorShift) | (r & kSoPayloadMask);
    return false;
  }
};

}  // namespace ckp::detail
