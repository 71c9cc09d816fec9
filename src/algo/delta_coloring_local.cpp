#include "algo/delta_coloring_local.hpp"
#include "algo/delta_coloring_local_program.hpp"

#include "graph/components.hpp"
#include "lcl/verify_coloring.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {

Thm10LocalResult delta_coloring_thm10_local(const LocalInput& input,
                                            int max_rounds,
                                            const EngineOptions& options,
                                            const Thm10Params& params) {
  CKP_CHECK_MSG(!input.has_ids(),
                "delta_coloring_thm10_local is RandLOCAL: pass no IDs");
  const Graph& g = *input.graph;
  const int delta = input.effective_delta();
  CKP_CHECK_MSG(delta >= 16, "Theorem 10 implementation needs Δ >= 16");
  CKP_CHECK_MSG(delta <= 511,
                "Δ exceeds the packed 9-bit color field (Δ <= 511)");
  CKP_CHECK_MSG(delta >= g.max_degree(), "delta below the true max degree");

  detail::Thm10LocalAlgo algo = detail::thm10_program(delta, params);
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  Thm10LocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  out.phase1_iterations = algo.iterations;
  const NodeId n = g.num_nodes();
  out.colors.assign(static_cast<std::size_t>(n), -1);
  std::vector<char> bad(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t w = run.states[static_cast<std::size_t>(v)].word;
    const std::uint64_t status = w >> detail::kT10StatusShift;
    CKP_CHECK_MSG(!out.completed || status == detail::kT10Colored,
                  "completed thm10 run left an uncolored node");
    if (status == detail::kT10Colored) {
      out.colors[static_cast<std::size_t>(v)] = static_cast<int>(
          (w >> detail::kT10ColorShift) & detail::kT10ColorMask);
    }
    if (w & detail::kT10BadBit) {
      bad[static_cast<std::size_t>(v)] = 1;
      ++out.bad_vertices;
    }
  }
  out.largest_bad_component = components_of_subset(g, bad).largest();
  if (out.completed) CKP_DCHECK(verify_coloring(g, out.colors, delta).ok);
  return out;
}

Thm11LocalResult delta_coloring_thm11_local(const LocalInput& input,
                                            int max_rounds,
                                            const EngineOptions& options) {
  CKP_CHECK_MSG(!input.has_ids(),
                "delta_coloring_thm11_local is RandLOCAL: pass no IDs");
  const Graph& g = *input.graph;
  const int delta = input.effective_delta();
  CKP_CHECK_MSG(delta >= 7, "Theorem 11 implementation needs Δ >= 7");
  CKP_CHECK_MSG(delta <= 511,
                "Δ exceeds the packed 9-bit color field (Δ <= 511)");
  CKP_CHECK_MSG(delta >= g.max_degree(), "delta below the true max degree");

  detail::Thm11LocalAlgo algo;
  algo.delta = delta;
  algo.jmax = delta - 3;

  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  Thm11LocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  const NodeId n = g.num_nodes();
  out.colors.assign(static_cast<std::size_t>(n), -1);
  std::vector<char> in_s(static_cast<std::size_t>(n), 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t w = run.states[static_cast<std::size_t>(v)].word;
    const std::uint64_t status = w >> detail::kT11StatusShift;
    CKP_CHECK_MSG(!out.completed || status == detail::kT11Colored,
                  "completed thm11 run left an uncolored node");
    if (status == detail::kT11Colored) {
      out.colors[static_cast<std::size_t>(v)] = static_cast<int>(
          (w >> detail::kT11ColorShift) & detail::kT11ColorMask);
    }
    if (w & detail::kT11InSBit) {
      in_s[static_cast<std::size_t>(v)] = 1;
      ++out.phase2_set_size;
    }
    if (w & detail::kT11InU3Bit) ++out.phase3_set_size;
  }
  out.phase2_largest_component = components_of_subset(g, in_s).largest();
  if (out.completed) CKP_DCHECK(verify_coloring(g, out.colors, delta).ok);
  return out;
}

}  // namespace ckp
