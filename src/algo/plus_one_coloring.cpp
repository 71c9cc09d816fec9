#include "algo/plus_one_coloring.hpp"
#include "algo/plus_one_coloring_program.hpp"

#include <algorithm>

#include "algo/color_reduction.hpp"
#include "algo/greedy_color.hpp"
#include "algo/linial.hpp"
#include "graph/components.hpp"
#include "lcl/verify_coloring.hpp"
#include "local/ids.hpp"
#include "util/check.hpp"

namespace ckp {

PlusOneResult plus_one_coloring_randomized(const Graph& g, int delta,
                                           std::uint64_t seed,
                                           RoundLedger& ledger,
                                           const PlusOneParams& params) {
  const NodeId n = g.num_nodes();
  CKP_CHECK(delta >= g.max_degree());
  const int palette = delta + 1;
  const int start_rounds = ledger.rounds();

  PlusOneResult out;
  out.colors.assign(static_cast<std::size_t>(n), -1);

  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    rngs.push_back(node_rng(seed, static_cast<std::uint64_t>(v), 0xC1));
  }

  std::vector<int> candidate(static_cast<std::size_t>(n), -1);
  std::vector<char> avail(static_cast<std::size_t>(palette), 0);
  NodeId uncolored = n;
  const int limit = params.shatter_iterations > 0 ? params.shatter_iterations
                                                  : params.max_iterations;
  int it = 0;
  for (; it < limit && uncolored > 0; ++it) {
    // Trial: draw a uniform candidate from the available palette.
    for (NodeId v = 0; v < n; ++v) {
      candidate[static_cast<std::size_t>(v)] = -1;
      if (out.colors[static_cast<std::size_t>(v)] != -1) continue;
      std::fill(avail.begin(), avail.end(), 1);
      for (NodeId u : g.neighbors(v)) {
        const int cu = out.colors[static_cast<std::size_t>(u)];
        if (cu >= 0) avail[static_cast<std::size_t>(cu)] = 0;
      }
      int count = 0;
      for (int c = 0; c < palette; ++c) count += avail[static_cast<std::size_t>(c)];
      CKP_CHECK(count >= 1);  // palette Δ+1 always leaves a free color
      auto pick = static_cast<int>(
          rngs[static_cast<std::size_t>(v)].next_below(static_cast<std::uint64_t>(count)));
      for (int c = 0; c < palette; ++c) {
        if (avail[static_cast<std::size_t>(c)] && pick-- == 0) {
          candidate[static_cast<std::size_t>(v)] = c;
          break;
        }
      }
    }
    // Keep the candidate unless an uncolored neighbor drew the same color.
    for (NodeId v = 0; v < n; ++v) {
      const int mine = candidate[static_cast<std::size_t>(v)];
      if (mine < 0) continue;
      bool contested = false;
      for (NodeId u : g.neighbors(v)) {
        if (out.colors[static_cast<std::size_t>(u)] == -1 &&
            candidate[static_cast<std::size_t>(u)] == mine) {
          contested = true;
          break;
        }
      }
      if (!contested) {
        out.colors[static_cast<std::size_t>(v)] = mine;
        --uncolored;
      }
    }
    ledger.charge(2);  // candidate exchange + commit exchange
  }
  out.randomized_iterations = it;
  out.residue_nodes = uncolored;

  if (uncolored > 0) {
    std::vector<char> residue(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      residue[static_cast<std::size_t>(v)] =
          out.colors[static_cast<std::size_t>(v)] == -1;
    }
    out.largest_residue_component = components_of_subset(g, residue).largest();
    if (params.shatter_iterations > 0) {
      // Deterministic finish with locally generated random IDs: Theorem 2
      // schedule reduced to Δ+1 classes, then greedy list coloring. With
      // palette Δ+1 a free color always exists, so this is failure-free.
      std::vector<std::uint64_t> rand_ids(static_cast<std::size_t>(n));
      for (std::uint64_t epoch = 1;; ++epoch) {
        for (NodeId v = 0; v < n; ++v) {
          rand_ids[static_cast<std::size_t>(v)] =
              node_rng(seed, static_cast<std::uint64_t>(v), epoch ^ 0xC2)();
        }
        if (ids_unique(rand_ids)) break;
      }
      auto schedule = linial_coloring(g, rand_ids, delta, ledger);
      reduce_palette_fast(g, schedule.colors, schedule.palette, palette,
                          ledger);
      greedy_color_by_schedule(g, schedule.colors, palette, palette, residue,
                               /*respect_inactive=*/true, nullptr, out.colors,
                               ledger);
      uncolored = 0;
    }
  }
  out.completed = (uncolored == 0);
  out.rounds = ledger.rounds() - start_rounds;
  CKP_DCHECK(!out.completed ||
             verify_coloring(g, out.colors, palette).ok);
  return out;
}

PlusOneResult plus_one_coloring_deterministic(
    const Graph& g, const std::vector<std::uint64_t>& ids, int delta,
    RoundLedger& ledger) {
  CKP_CHECK(delta >= g.max_degree());
  const int start_rounds = ledger.rounds();
  PlusOneResult out;
  auto coloring = linial_coloring(g, ids, delta, ledger);
  const int palette = delta + 1;
  if (coloring.palette > palette) {
    reduce_palette_fast(g, coloring.colors, coloring.palette, palette, ledger);
  }
  out.colors = std::move(coloring.colors);
  out.rounds = ledger.rounds() - start_rounds;
  CKP_DCHECK(verify_coloring(g, out.colors, palette).ok);
  return out;
}

PlusOneLocalResult plus_one_local(const LocalInput& input, int palette,
                                  int max_rounds,
                                  const EngineOptions& options) {
  CKP_CHECK_MSG(!input.has_ids(), "plus_one_local is RandLOCAL: pass no IDs");
  const Graph& g = *input.graph;
  const int delta = g.max_degree();
  if (palette <= 0) palette = delta + 1;
  CKP_CHECK_MSG(palette >= delta + 1,
                "trial coloring needs palette >= Δ+1 so a color is always "
                "available");
  CKP_CHECK_MSG(palette <= 64, "packed palette mask caps colors at 64");
  detail::PlusOneLocalAlgo algo{palette};
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  PlusOneLocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  out.colors.resize(run.states.size(), -1);
  for (std::size_t i = 0; i < run.states.size(); ++i) {
    const std::uint64_t w = run.states[i].word;
    CKP_CHECK_MSG(!out.completed || (w & detail::kPoDecidedBit),
                  "completed run left an uncolored node");
    if (w & detail::kPoDecidedBit) {
      out.colors[i] = static_cast<int>(w & detail::kPoColorMask);
    }
  }
  if (out.completed) CKP_DCHECK(verify_coloring(g, out.colors, palette).ok);
  return out;
}

}  // namespace ckp
