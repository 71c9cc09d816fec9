// Greedy (list-)coloring: a schedule-driven phase variant and an engine-
// native DetLOCAL variant.
//
// greedy_color_by_schedule: given a proper "schedule" coloring with a small
// palette P (typically the O(Δ²) coloring of Theorem 2), processing schedule
// classes one per round lets every node pick a color knowing all previously
// processed neighbors' choices — the standard way to turn Linial's coloring
// into greedy symmetry breaking. Costs P rounds.
//
// greedy_color_local: the classic ID-priority greedy run on the strict
// synchronous engine — a node decides once no undecided neighbor outranks
// it by ID, taking the smallest color unused by decided neighbors. Costs
// O(longest descending-ID path) rounds: O(log n / log log n) w.h.p. under
// random IDs on bounded-degree graphs, Θ(n) worst case under adversarial
// IDs (hence the round cap). Its single-word bit-field state makes it the
// flagship DetLOCAL workload of the scale benches.
#pragma once

#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

// Greedy coloring over `palette` colors driven by `schedule` (a proper
// coloring with values [0, schedule_palette)). Only nodes with
// active[v] != 0 participate; inactive nodes keep colors[v] untouched
// (they may already hold colors that constrain active neighbors if
// `respect_inactive` is true). colors[v] == -1 denotes uncolored.
//
// allowed(v, c) restricts node v's palette (list coloring); pass nullptr
// for the full palette. Throws CheckFailure if some node finds no free
// allowed color — callers must guarantee list sizes exceed constraint
// counts, which is exactly the precondition of the algorithms in the paper.
void greedy_color_by_schedule(
    const Graph& g, const std::vector<int>& schedule, int schedule_palette,
    int palette, std::vector<char> active, bool respect_inactive,
    const std::function<bool(NodeId, int)>& allowed, std::vector<int>& colors,
    RoundLedger& ledger);

struct GreedyColorLocalResult {
  std::vector<int> colors;  // -1 = undecided (only when !completed)
  int rounds = 0;
  bool completed = true;  // false if the round cap was hit
  std::uint64_t engine_bytes = 0;  // EngineResult::engine_bytes of the run
};

// ID-priority greedy coloring on the engine (DetLOCAL: input.ids required,
// each < 2^48). `palette` 0 means Δ(G)+1; any value must be >= Δ(G)+1 and
// <= 64 (the free-color pick is a single 64-bit mask). Deterministic given
// the IDs; bit-identical across threads and schedulers.
GreedyColorLocalResult greedy_color_local(const LocalInput& input,
                                          int palette = 0,
                                          int max_rounds = 1 << 20,
                                          const EngineOptions& options = {});

}  // namespace ckp
