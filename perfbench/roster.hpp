// The nine packed roster entries, called through their algo/ entry points
// and checked by their lcl/ verifiers. Calling the entry points directly
// (not the serve registry adapters, which verify inside run) keeps the
// algorithm call and the verifier call in separate spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/delta_coloring_local.hpp"
#include "algo/greedy_color.hpp"
#include "algo/matching_local.hpp"
#include "algo/mis_ghaffari.hpp"
#include "algo/mis_luby.hpp"
#include "algo/plus_one_coloring.hpp"
#include "algo/sinkless_local.hpp"
#include "lcl/verify_coloring.hpp"
#include "lcl/verify_matching.hpp"
#include "lcl/verify_mis.hpp"
#include "lcl/verify_orientation.hpp"
#include "util/check.hpp"

namespace perfbench {

enum class Output { kMis, kMatching, kColoring, kOrientation };

struct RosterEntry {
  const char* name;       // serve registry name
  const char* span;       // "algo.<name>"
  Output output;
  bool deterministic;     // DetLOCAL: sequential ids
  bool edge_labels;       // needs the generator's edge coloring
  bool tree;              // runs on the Δ=16 complete tree (rake phases)
  int max_rounds;         // the entry point's own default cap
  int setup_cap;          // smallest cap the entry point accepts (0 if any)
};

// Cycle order of the engine_roster workload.
inline const std::vector<RosterEntry>& roster() {
  static const std::vector<RosterEntry> kRoster = {
      {"luby", "algo.luby", Output::kMis, false, false, false, 1 << 20, 0},
      {"ghaffari", "algo.ghaffari", Output::kMis, false, false, false,
       1 << 20, 0},
      {"matching_rand", "algo.matching_rand", Output::kMatching, false,
       false, false, 1 << 20, 0},
      {"matching_det", "algo.matching_det", Output::kMatching, true, false,
       false, 1 << 20, 0},
      {"plus_one", "algo.plus_one", Output::kColoring, false, false, false,
       1 << 20, 0},
      {"greedy", "algo.greedy", Output::kColoring, true, false, false,
       1 << 20, 0},
      // sinkless_local rejects a cap of 0, so its set-up call runs 1 round.
      {"sinkless", "algo.sinkless", Output::kOrientation, false, true, false,
       1 << 14, 1},
      {"thm10", "algo.thm10", Output::kColoring, false, false, true, 1 << 20,
       0},
      {"thm11", "algo.thm11", Output::kColoring, false, false, true, 1 << 20,
       0},
  };
  return kRoster;
}

struct RosterOutput {
  int rounds = 0;
  bool completed = false;
  std::uint64_t engine_bytes = 0;
  std::vector<char> flags;  // MIS membership or matched edges
  std::vector<int> colors;
  ckp::Orientation orient;
};

inline RosterOutput run_entry(const RosterEntry& e, const ckp::LocalInput& in,
                              int max_rounds,
                              const ckp::EngineOptions& opts) {
  using namespace ckp;
  RosterOutput out;
  const std::string name = e.name;
  const auto take = [&out](const auto& r) {
    out.rounds = r.rounds;
    out.completed = r.completed;
    out.engine_bytes = r.engine_bytes;
  };
  if (name == "luby") {
    MisResult r = mis_luby(in, max_rounds, opts);
    take(r);
    out.flags = std::move(r.in_set);
  } else if (name == "ghaffari") {
    GhaffariLocalResult r = mis_ghaffari_local(in, max_rounds, opts);
    take(r);
    out.flags = std::move(r.in_set);
  } else if (name == "matching_rand") {
    MatchingLocalResult r = matching_randomized_local(in, max_rounds, opts);
    take(r);
    out.flags = std::move(r.in_matching);
  } else if (name == "matching_det") {
    MatchingLocalResult r =
        matching_deterministic_local(in, max_rounds, opts);
    take(r);
    out.flags = std::move(r.in_matching);
  } else if (name == "plus_one") {
    PlusOneLocalResult r = plus_one_local(in, 0, max_rounds, opts);
    take(r);
    out.colors = std::move(r.colors);
  } else if (name == "greedy") {
    GreedyColorLocalResult r = greedy_color_local(in, 0, max_rounds, opts);
    take(r);
    out.colors = std::move(r.colors);
  } else if (name == "sinkless") {
    SinklessLocalResult r = sinkless_local(in, max_rounds, opts);
    take(r);
    out.orient = std::move(r.orient);
  } else if (name == "thm10") {
    Thm10LocalResult r = delta_coloring_thm10_local(in, max_rounds, opts);
    take(r);
    out.colors = std::move(r.colors);
  } else if (name == "thm11") {
    Thm11LocalResult r = delta_coloring_thm11_local(in, max_rounds, opts);
    take(r);
    out.colors = std::move(r.colors);
  } else {
    CKP_CHECK_MSG(false, "no roster entry named " << name);
  }
  return out;
}

// The LCL verifier's verdict on the output alone; completion is checked by
// the caller. Colorings use Δ+1 colors except Thm 10/11, which use Δ.
inline bool verify_entry(const RosterEntry& e, const ckp::Graph& g,
                         const RosterOutput& out) {
  using namespace ckp;
  switch (e.output) {
    case Output::kMis:
      return verify_mis(g, out.flags).ok;
    case Output::kMatching:
      return verify_maximal_matching(g, out.flags).ok;
    case Output::kColoring:
      return verify_coloring(g, out.colors,
                             e.tree ? g.max_degree() : g.max_degree() + 1)
          .ok;
    case Output::kOrientation:
      return verify_sinkless_orientation(g, out.orient).ok;
  }
  return false;
}

}  // namespace perfbench
