#include "algo/mis_ghaffari.hpp"
#include "algo/mis_ghaffari_program.hpp"

#include "algo/mis_deterministic.hpp"
#include "graph/components.hpp"
#include "lcl/verify_mis.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {

GhaffariLocalResult mis_ghaffari_local(const LocalInput& input,
                                       int max_rounds,
                                       const EngineOptions& options,
                                       const GhaffariMisParams& params) {
  CKP_CHECK_MSG(!input.has_ids(),
                "mis_ghaffari_local is RandLOCAL: pass no IDs");
  const int delta = std::max(input.effective_delta(), 1);
  const int iterations =
      params.phase1_iterations > 0
          ? params.phase1_iterations
          : 2 * ceil_log2(static_cast<std::uint64_t>(delta) + 1) + 6;
  CKP_CHECK_MSG(iterations <= 255,
                "phase-1 iteration budget exceeds the 8-bit counter");
  detail::GhaffariLocalAlgo algo{iterations};
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  GhaffariLocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  // Mark round + resolve round per iteration, then the hand-off round in
  // which residue nodes drew their phase-2 priorities.
  out.phase1_rounds = std::min(run.rounds, 2 * iterations + 1);
  const NodeId n = input.graph->num_nodes();
  out.in_set.resize(static_cast<std::size_t>(n));
  std::vector<char> residue(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t w = run.states[static_cast<std::size_t>(v)].word;
    const std::uint64_t status = w >> detail::kGhStatusShift;
    CKP_CHECK_MSG(!out.completed || status != 0,
                  "completed run left an undecided node");
    out.in_set[static_cast<std::size_t>(v)] =
        status == detail::kGhInMis ? 1 : 0;
    // The phase-2 flag is sticky through halts, so the shattering residue
    // is recoverable from final states alone.
    residue[static_cast<std::size_t>(v)] = (w & detail::kGhPhase2Bit) ? 1 : 0;
    if (residue[static_cast<std::size_t>(v)]) ++out.residue_nodes;
  }
  out.largest_residue_component =
      components_of_subset(*input.graph, residue).largest();
  if (out.completed) CKP_DCHECK(verify_mis(*input.graph, out.in_set).ok);
  return out;
}

GhaffariMisResult mis_ghaffari(const Graph& g, std::uint64_t seed,
                               RoundLedger& ledger,
                               const GhaffariMisParams& params) {
  const NodeId n = g.num_nodes();
  const int delta = std::max(g.max_degree(), 1);
  const int iterations =
      params.phase1_iterations > 0
          ? params.phase1_iterations
          : 2 * ceil_log2(static_cast<std::uint64_t>(delta) + 1) + 6;

  enum : char { kUndecided = 0, kInMis = 1, kRetired = 2 };
  std::vector<char> status(static_cast<std::size_t>(n), kUndecided);
  std::vector<double> desire(static_cast<std::size_t>(n), 0.5);
  std::vector<char> marked(static_cast<std::size_t>(n), 0);
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    rngs.push_back(node_rng(seed, static_cast<std::uint64_t>(v)));
  }

  GhaffariMisResult out;
  const int start_rounds = ledger.rounds();
  for (int it = 0; it < iterations; ++it) {
    // Sub-round A: mark.
    for (NodeId v = 0; v < n; ++v) {
      marked[static_cast<std::size_t>(v)] =
          status[static_cast<std::size_t>(v)] == kUndecided &&
          rngs[static_cast<std::size_t>(v)].next_bernoulli(
              desire[static_cast<std::size_t>(v)]);
    }
    // Sub-round B: join when marked with no marked undecided neighbor.
    std::vector<char> joins(static_cast<std::size_t>(n), 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!marked[static_cast<std::size_t>(v)]) continue;
      bool alone = true;
      for (NodeId u : g.neighbors(v)) {
        if (marked[static_cast<std::size_t>(u)]) {
          alone = false;
          break;
        }
      }
      joins[static_cast<std::size_t>(v)] = alone;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (joins[static_cast<std::size_t>(v)]) {
        status[static_cast<std::size_t>(v)] = kInMis;
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (status[static_cast<std::size_t>(v)] != kUndecided) continue;
      for (NodeId u : g.neighbors(v)) {
        if (status[static_cast<std::size_t>(u)] == kInMis) {
          status[static_cast<std::size_t>(v)] = kRetired;
          break;
        }
      }
    }
    // Desire update from effective degree.
    std::vector<double> next_desire = desire;
    for (NodeId v = 0; v < n; ++v) {
      if (status[static_cast<std::size_t>(v)] != kUndecided) continue;
      double effective = 0.0;
      for (NodeId u : g.neighbors(v)) {
        if (status[static_cast<std::size_t>(u)] == kUndecided) {
          effective += desire[static_cast<std::size_t>(u)];
        }
      }
      if (effective >= 2.0) {
        next_desire[static_cast<std::size_t>(v)] =
            desire[static_cast<std::size_t>(v)] / 2.0;
      } else {
        next_desire[static_cast<std::size_t>(v)] =
            std::min(0.5, desire[static_cast<std::size_t>(v)] * 2.0);
      }
    }
    desire = std::move(next_desire);
    ledger.charge(2);  // mark exchange + join/retire exchange
  }
  out.phase1_rounds = ledger.rounds() - start_rounds;

  // Shattering measurement.
  std::vector<char> undecided(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    undecided[static_cast<std::size_t>(v)] =
        status[static_cast<std::size_t>(v)] == kUndecided;
    if (undecided[static_cast<std::size_t>(v)]) ++out.residue_nodes;
  }
  out.largest_residue_component =
      components_of_subset(g, undecided).largest();

  // Phase 2: deterministic finish on the residue with locally generated
  // random IDs (unique w.h.p.; node_rng streams are independent).
  if (out.residue_nodes > 0) {
    std::vector<std::uint64_t> ids(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      ids[static_cast<std::size_t>(v)] =
          rngs[static_cast<std::size_t>(v)]();
    }
    const auto det = mis_deterministic(g, ids, delta, ledger, undecided);
    for (NodeId v = 0; v < n; ++v) {
      if (det.in_set[static_cast<std::size_t>(v)]) {
        CKP_DCHECK(status[static_cast<std::size_t>(v)] == kUndecided);
        status[static_cast<std::size_t>(v)] = kInMis;
      }
    }
  }

  out.in_set.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    out.in_set[static_cast<std::size_t>(v)] =
        status[static_cast<std::size_t>(v)] == kInMis;
  }
  out.rounds = ledger.rounds() - start_rounds;
  CKP_DCHECK(verify_mis(g, out.in_set).ok);
  return out;
}

}  // namespace ckp
