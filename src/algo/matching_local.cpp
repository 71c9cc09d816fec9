#include "algo/matching_local.hpp"
#include "algo/matching_local_program.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "lcl/verify_matching.hpp"
#include "util/check.hpp"

namespace ckp {

MatchingLocalResult matching_randomized_local(const LocalInput& input,
                                              int max_rounds,
                                              const EngineOptions& options) {
  CKP_CHECK_MSG(!input.has_ids(),
                "matching_randomized_local is RandLOCAL: pass no IDs");
  CKP_CHECK_MSG(input.edge_labels.empty(),
                "matching_randomized_local synthesizes its own edge labels");
  CKP_CHECK_MSG(max_rounds <= (1 << 21),
                "round cap exceeds the packed 20-bit iteration counter");
  const Graph& g = *input.graph;
  const EdgeId m = g.num_edges();
  CKP_CHECK_MSG(static_cast<std::uint64_t>(m) < (1ULL << 26),
                "packed proposal field caps matching at 2^26 edges");
  LocalInput labeled = input;
  labeled.edge_labels.resize(static_cast<std::size_t>(m));
  std::iota(labeled.edge_labels.begin(), labeled.edge_labels.end(), 0);

  detail::MatchRandAlgo algo{input.seed};
  const auto run = run_local(labeled, algo, max_rounds, nullptr, options);

  MatchingLocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  out.in_matching.assign(static_cast<std::size_t>(m), 0);
  for (const auto& s : run.states) {
    const std::uint64_t status = s.word >> detail::kMrStatusShift;
    CKP_CHECK_MSG(!out.completed || status != 0,
                  "completed run left an undecided node");
    if (status == detail::kMrMatched) {
      const std::uint64_t label =
          (s.word >> detail::kMrLabelShift) & detail::kMrLabelMask;
      out.in_matching[static_cast<std::size_t>(label)] = 1;
    }
  }
  if (out.completed) CKP_DCHECK(verify_maximal_matching(g, out.in_matching).ok);
  return out;
}

MatchingLocalResult matching_deterministic_local(const LocalInput& input,
                                                 int max_rounds,
                                                 const EngineOptions& options) {
  CKP_CHECK_MSG(input.has_ids(),
                "matching_deterministic_local is DetLOCAL: IDs required");
  const Graph& g = *input.graph;
  for (const std::uint64_t id : input.ids) {
    CKP_CHECK_MSG(id < detail::kMdNoTarget,
                  "packed matching needs IDs below 2^28 - 1");
  }
  detail::MatchDetAlgo algo;
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  MatchingLocalResult out;
  out.rounds = run.rounds;
  out.completed = run.all_halted;
  out.engine_bytes = run.engine_bytes;
  const EdgeId m = g.num_edges();
  out.in_matching.assign(static_cast<std::size_t>(m), 0);
  // An edge is matched iff both endpoints halted matched pointing at each
  // other's IDs — recoverable from final states without an ID -> node map.
  for (EdgeId e = 0; e < m; ++e) {
    const auto [a, b] = g.endpoints(e);
    const std::uint64_t wa = run.states[static_cast<std::size_t>(a)].word;
    const std::uint64_t wb = run.states[static_cast<std::size_t>(b)].word;
    if (((wa >> detail::kMdStatusShift) & 3) == detail::kMdMatched &&
        ((wb >> detail::kMdStatusShift) & 3) == detail::kMdMatched &&
        ((wa >> detail::kMdTargetShift) & detail::kMdIdMask) ==
            (wb & detail::kMdIdMask) &&
        ((wb >> detail::kMdTargetShift) & detail::kMdIdMask) ==
            (wa & detail::kMdIdMask)) {
      out.in_matching[static_cast<std::size_t>(e)] = 1;
    }
  }
  if (out.completed) CKP_DCHECK(verify_maximal_matching(g, out.in_matching).ok);
  return out;
}

}  // namespace ckp
