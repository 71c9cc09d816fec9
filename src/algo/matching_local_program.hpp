// The node programs behind matching_randomized_local and
// matching_deterministic_local (the handshake matchings). They live in this
// private header so that the tests can also run them on the naive reference
// engine (tests/reference_engine.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "local/engine.hpp"
#include "util/rng.hpp"

namespace ckp::detail {

// ---------------------------------------------------------------------------
// Randomized handshake matching. One u64 per node:
//
//   [63:62] status (0 active, 1 matched, 2 retired)
//   [61]    valid: the word carries this iteration's proposal
//   [57:32] proposed edge label (26 bits); after matching, the matched edge
//   [19:0]  iteration counter t (feeds the stateless draws)
//
// An active node's live incident edges are the ports whose neighbor is
// still active (an active node never sees a retired neighbor: a node
// retires only when every neighbor is matched). Each iteration it proposes
// the live edge minimizing (draw, label), where draw = mix_seed(seed,
// label, t) is computed identically by both endpoints; mutual proposals
// match. The globally minimum live edge is always mutual, so every
// iteration makes progress and the matching is maximal on halt.
constexpr int kMrStatusShift = 62;
constexpr std::uint64_t kMrMatched = 1;
constexpr std::uint64_t kMrRetired = 2;
constexpr std::uint64_t kMrValidBit = 1ULL << 61;
constexpr int kMrLabelShift = 32;
constexpr std::uint64_t kMrLabelMask = (1ULL << 26) - 1;
constexpr std::uint64_t kMrIterMask = (1ULL << 20) - 1;

struct MatchRandAlgo {
  // Draws are hashes of (seed, edge label, iteration), not NodeEnv::draw:
  // both endpoints of an edge must compute the same value.
  struct State {
    std::uint64_t word = 0;
  };

  std::uint64_t seed = 0;  // read-only config

  State init(const NodeEnv&) { return {0}; }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    if ((w >> kMrStatusShift) != 0) return true;
    const std::uint64_t t = w & kMrIterMask;
    if ((w & kMrValidBit) == 0) {
      // Proposal round: pick the (draw, label)-minimum live edge.
      bool any_live = false;
      std::uint64_t best_draw = 0;
      std::uint64_t best_label = 0;
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        if ((nbrs[k]->word >> kMrStatusShift) != 0) continue;
        const auto label =
            static_cast<std::uint64_t>(env.incident_edge_labels[k]);
        const std::uint64_t draw = mix_seed(seed, label, t);
        if (!any_live || draw < best_draw ||
            (draw == best_draw && label < best_label)) {
          any_live = true;
          best_draw = draw;
          best_label = label;
        }
      }
      if (!any_live) {
        self.word = kMrRetired << kMrStatusShift;
        return true;
      }
      self.word = kMrValidBit | (best_label << kMrLabelShift) | t;
      return false;
    }
    // Resolve round: matched iff the neighbor across the proposed edge
    // proposed the same edge.
    const std::uint64_t my_label = (w >> kMrLabelShift) & kMrLabelMask;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (static_cast<std::uint64_t>(env.incident_edge_labels[k]) != my_label) {
        continue;
      }
      const std::uint64_t nw = nbrs[k]->word;
      if ((nw >> kMrStatusShift) == 0 && (nw & kMrValidBit) &&
          ((nw >> kMrLabelShift) & kMrLabelMask) == my_label) {
        self.word = (kMrMatched << kMrStatusShift) |
                    (my_label << kMrLabelShift);
        return true;
      }
      break;
    }
    self.word = (t + 1) & kMrIterMask;
    return false;
  }
};

// ---------------------------------------------------------------------------
// Deterministic greedy matching by edge priority. One u64 per node:
//
//   [27:0]  own ID (published every round; neighbors read it via ports)
//   [55:28] proposal-target ID (the neighbor across the proposed edge);
//           kMdNoTarget when none, the partner's ID after matching
//   [57:56] status (0 active, 1 matched, 2 retired)
//   [58]    valid: the word carries this round's proposal
//
// Edge {u, v} has priority (min(id_u, id_v) << 28) | max(id_u, id_v),
// computable by either endpoint from the published IDs. Each proposal
// round every active node proposes its minimum-priority live edge; mutual
// proposals match in the resolve round. The globally minimum live edge is
// mutual, so two rounds always retire at least one edge chain link;
// termination is bounded by the longest increasing priority chain.
constexpr std::uint64_t kMdIdMask = (1ULL << 28) - 1;
constexpr std::uint64_t kMdNoTarget = kMdIdMask;
constexpr int kMdTargetShift = 28;
constexpr int kMdStatusShift = 56;
constexpr std::uint64_t kMdMatched = 1;
constexpr std::uint64_t kMdRetired = 2;
constexpr std::uint64_t kMdValidBit = 1ULL << 58;

struct MatchDetAlgo {
  struct State {
    std::uint64_t word = 0;
  };

  State init(const NodeEnv& env) {
    return {(env.id & kMdIdMask) | (kMdNoTarget << kMdTargetShift)};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    const std::uint64_t w = self.word;
    if (((w >> kMdStatusShift) & 3) != 0) return true;
    const std::uint64_t my_id = env.id & kMdIdMask;
    if ((w & kMdValidBit) == 0) {
      // Proposal round. React to neighbors matched last resolve round by
      // dropping them from the live set; retire when nothing is live.
      bool any_live = false;
      std::uint64_t best_prio = 0;
      std::uint64_t best_id = 0;
      for (const State* nb : nbrs) {
        const std::uint64_t nw = nb->word;
        if (((nw >> kMdStatusShift) & 3) != 0) continue;
        const std::uint64_t nid = nw & kMdIdMask;
        const std::uint64_t prio =
            (std::min(my_id, nid) << kMdTargetShift) | std::max(my_id, nid);
        if (!any_live || prio < best_prio) {
          any_live = true;
          best_prio = prio;
          best_id = nid;
        }
      }
      if (!any_live) {
        self.word = my_id | (kMdNoTarget << kMdTargetShift) |
                    (kMdRetired << kMdStatusShift);
        return true;
      }
      self.word = my_id | (best_id << kMdTargetShift) | kMdValidBit;
      return false;
    }
    // Resolve round: matched iff the proposal is mutual.
    const std::uint64_t target = (w >> kMdTargetShift) & kMdIdMask;
    for (const State* nb : nbrs) {
      const std::uint64_t nw = nb->word;
      if ((nw & kMdIdMask) != target) continue;
      if ((nw & kMdValidBit) && ((nw >> kMdStatusShift) & 3) == 0 &&
          ((nw >> kMdTargetShift) & kMdIdMask) == my_id) {
        self.word = my_id | (target << kMdTargetShift) |
                    (kMdMatched << kMdStatusShift);
        return true;
      }
      break;
    }
    self.word = my_id | (kMdNoTarget << kMdTargetShift);
    return false;
  }
};

}  // namespace ckp::detail
