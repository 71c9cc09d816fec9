// Luby's randomized MIS, written against the strict synchronous engine.
//
// Each iteration (two engine rounds): every undecided node draws a random
// 64-bit value and publishes it; a node joins the MIS if its draw is a
// strict local minimum among undecided neighbors, then nodes adjacent to a
// new MIS member retire. Terminates in O(log n) iterations with high
// probability. This is the reference RandLOCAL algorithm exercising the
// structural-locality engine (local/engine.hpp); the phase-composed
// algorithms elsewhere use the array style with explicit round ledgers.
#pragma once

#include <vector>

#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

struct MisResult {
  std::vector<char> in_set;
  int rounds = 0;
  bool completed = true;  // false if the round cap was hit
  std::uint64_t engine_bytes = 0;  // EngineResult::engine_bytes of the run
};

// Runs Luby's algorithm under `input` (RandLOCAL: ids may be empty).
// `max_rounds` caps engine rounds (2 per Luby iteration). `options` selects
// threads/scheduler; results are bit-identical across all of them.
MisResult mis_luby(const LocalInput& input, int max_rounds = 1 << 20,
                   const EngineOptions& options = {});

}  // namespace ckp
