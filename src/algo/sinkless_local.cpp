#include "algo/sinkless_local.hpp"
#include "algo/sinkless_local_program.hpp"

#include <array>
#include <cstdint>

#include "util/check.hpp"

namespace ckp {

SinklessLocalResult sinkless_local(const LocalInput& input, int max_rounds,
                                   const EngineOptions& options) {
  CKP_CHECK(input.graph != nullptr);
  const Graph& g = *input.graph;
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  CKP_CHECK_MSG(!input.has_ids(), "sinkless_local is RandLOCAL: ids forbidden");
  CKP_CHECK_MSG(max_rounds >= 1, "max_rounds " << max_rounds << " < 1");
  CKP_CHECK_MSG(input.edge_labels.size() == static_cast<std::size_t>(m),
                "sinkless_local needs a proper edge coloring in edge_labels");
  // Colors must fit the 8-bit field and be proper (no repeat at any node).
  std::array<std::uint64_t, 4> seen{};
  for (NodeId v = 0; v < n; ++v) {
    CKP_CHECK_MSG(g.degree(v) >= 2,
                  "sinkless orientation needs min degree >= 2; node "
                      << v << " has degree " << g.degree(v));
    seen.fill(0);
    for (EdgeId e : g.incident_edges(v)) {
      const int c = input.edge_labels[static_cast<std::size_t>(e)];
      CKP_CHECK_MSG(c >= 0 && c < 256, "edge color " << c << " outside [0,256)");
      std::uint64_t& word = seen[static_cast<std::size_t>(c) / 64];
      const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(c) % 64);
      CKP_CHECK_MSG((word & bit) == 0, "edge coloring not proper at node " << v);
      word |= bit;
    }
  }

  detail::SinklessAlgo algo;
  const auto run = run_local(input, algo, max_rounds, nullptr, options);

  SinklessLocalResult out;
  out.rounds = run.rounds;
  out.engine_bytes = run.engine_bytes;
  out.orient.assign(static_cast<std::size_t>(m), std::int8_t{1});

  // Extraction. Each satisfied node claims the incident edge of its owned
  // color; a steal that its victim never processed (the victim halted first —
  // the rare late cascade) leaves an edge with two satisfied endpoints, which
  // the newer generation wins. Nodes left without an out-edge make the run
  // incomplete; unclaimed edges keep the +1 default.
  std::vector<std::uint32_t> owner_gen(static_cast<std::size_t>(m), 0);
  std::vector<char> has_out(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> owner(static_cast<std::size_t>(m), kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint64_t w = run.states[static_cast<std::size_t>(v)].word;
    if ((w & detail::kSoSatBit) == 0) continue;
    const std::uint64_t c = detail::color_of(w);
    const auto gen = static_cast<std::uint32_t>(w & detail::kSoPayloadMask);
    for (EdgeId e : g.incident_edges(v)) {
      if (static_cast<std::uint64_t>(
              input.edge_labels[static_cast<std::size_t>(e)]) != c) {
        continue;
      }
      const std::size_t ei = static_cast<std::size_t>(e);
      // Ties are impossible (see step), but resolve them to the first
      // endpoint so extraction is total either way.
      if (owner[ei] == kInvalidNode || gen > owner_gen[ei]) {
        if (owner[ei] != kInvalidNode) {
          has_out[static_cast<std::size_t>(owner[ei])] = 0;
        }
        owner[ei] = v;
        owner_gen[ei] = gen;
        has_out[static_cast<std::size_t>(v)] = 1;
        out.orient[ei] = g.endpoints(e).first == v ? std::int8_t{1}
                                                   : std::int8_t{-1};
      }
      break;
    }
  }
  out.unsatisfied = 0;
  for (NodeId v = 0; v < n; ++v) {
    out.unsatisfied += has_out[static_cast<std::size_t>(v)] == 0 ? 1 : 0;
  }
  out.completed = run.all_halted && out.unsatisfied == 0 &&
                  verify_sinkless_orientation(g, out.orient).ok;
  return out;
}

}  // namespace ckp
