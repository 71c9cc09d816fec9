#include "algo/greedy_color.hpp"
#include "algo/greedy_color_program.hpp"

#include <cstdint>

#include "util/check.hpp"

namespace ckp {

void greedy_color_by_schedule(
    const Graph& g, const std::vector<int>& schedule, int schedule_palette,
    int palette, std::vector<char> active, bool respect_inactive,
    const std::function<bool(NodeId, int)>& allowed, std::vector<int>& colors,
    RoundLedger& ledger) {
  const NodeId n = g.num_nodes();
  CKP_CHECK(schedule.size() == static_cast<std::size_t>(n));
  CKP_CHECK(colors.size() == static_cast<std::size_t>(n));
  CKP_CHECK(active.size() == static_cast<std::size_t>(n));
  CKP_CHECK(palette >= 1);

  // Bucket active nodes by schedule class so each round costs only its
  // class plus neighbor scans.
  std::vector<std::vector<NodeId>> buckets(
      static_cast<std::size_t>(schedule_palette));
  for (NodeId v = 0; v < n; ++v) {
    if (!active[static_cast<std::size_t>(v)]) continue;
    const int s = schedule[static_cast<std::size_t>(v)];
    CKP_CHECK(s >= 0 && s < schedule_palette);
    buckets[static_cast<std::size_t>(s)].push_back(v);
  }
  // Participants colored in earlier rounds of this call must keep
  // constraining later rounds even though they are no longer active.
  const std::vector<char> participant = active;

  std::vector<char> used(static_cast<std::size_t>(palette), 0);
  for (int s = 0; s < schedule_palette; ++s) {
    // One synchronous round: all nodes of schedule class s decide using
    // only the colors fixed in earlier rounds (same-class nodes are
    // non-adjacent because the schedule is a proper coloring).
    for (NodeId v : buckets[static_cast<std::size_t>(s)]) {
      CKP_CHECK_MSG(colors[static_cast<std::size_t>(v)] == -1,
                    "active node " << v << " already colored");
      std::fill(used.begin(), used.end(), 0);
      for (NodeId u : g.neighbors(v)) {
        const bool counts =
            participant[static_cast<std::size_t>(u)] || respect_inactive;
        const int c = colors[static_cast<std::size_t>(u)];
        if (counts && c >= 0 && c < palette) used[static_cast<std::size_t>(c)] = 1;
      }
      int pick = -1;
      for (int c = 0; c < palette; ++c) {
        if (!used[static_cast<std::size_t>(c)] && (!allowed || allowed(v, c))) {
          pick = c;
          break;
        }
      }
      CKP_CHECK_MSG(pick >= 0, "node " << v << " has no free allowed color");
      colors[static_cast<std::size_t>(v)] = pick;
      active[static_cast<std::size_t>(v)] = 0;
    }
    ledger.charge(1);
  }
}

GreedyColorLocalResult greedy_color_local(const LocalInput& input,
                                          int palette, int max_rounds,
                                          const EngineOptions& options) {
  CKP_CHECK(input.graph != nullptr);
  const Graph& g = *input.graph;
  if (palette == 0) palette = g.max_degree() + 1;
  CKP_CHECK_MSG(palette > g.max_degree(),
                "palette " << palette << " < Δ+1 = " << g.max_degree() + 1);
  CKP_CHECK_MSG(palette <= 64, "greedy_color_local palette capped at 64");

  detail::GreedyColorAlgo algo;
  algo.palette = palette;
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  GreedyColorLocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  out.colors.resize(run.states.size(), -1);
  for (std::size_t i = 0; i < run.states.size(); ++i) {
    const std::uint64_t w = run.states[i].word;
    if (w & detail::kGcDecidedBit) {
      out.colors[i] = static_cast<int>((w >> detail::kGcColorShift) &
                                       detail::kGcColorMask);
    }
  }
  return out;
}

}  // namespace ckp
