// The node program behind the registry's "spin" entry. It lives in this
// private header so that the tests can also run it on the naive reference
// engine (tests/reference_engine.hpp).
#pragma once

#include <cstdint>
#include <span>

#include "local/engine.hpp"
#include "util/rng.hpp"

namespace ckp::detail {

// A never-halting workload for budget/cancellation coverage: every node
// accumulates a mix of its own and its neighbors' words each round and never
// halts, so a run ends only via max_rounds or a budget stop. The word is a
// deterministic function of the topology and round count — cancelling at
// round r always yields the same digest — which is what lets the
// cancellation tests assert consistent (untorn) partial states.
struct SpinNode {
  struct State {
    std::uint64_t word;
  };

  State init(const NodeEnv& env) {
    return State{mix_seed(static_cast<std::uint64_t>(env.index),
                          static_cast<std::uint64_t>(env.degree))};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    (void)env;
    std::uint64_t acc = self.word * 0x9e3779b97f4a7c15ULL;
    for (const State* nbr : nbrs) acc += nbr->word;
    self.word = acc;
    return false;
  }
};

}  // namespace ckp::detail
