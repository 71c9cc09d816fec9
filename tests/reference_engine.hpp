// A deliberately naive sequential LOCAL engine: the differential oracle for
// the round loop in local/engine.hpp.
//
// It follows the round definition literally. Each round copies the whole
// state vector, then every node that has not halted reads its neighbors'
// previous-round states and computes. There are no chunks, no active-list
// compaction, no cached environments and no scratch rows: a node's NodeEnv
// is rebuilt from the input at every use. The NodeEnv contract is the
// engine's: IDs in DetLOCAL (and no draws); the seed and the round number
// (0 in init, r in round r) that key NodeEnv::draw; incident edge labels in
// port order; declared n and Δ; and the max_rounds cap. run_local must
// match it bit for bit at every thread count and scheduler.
#pragma once

#include <gtest/gtest.h>

#include <concepts>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "local/engine.hpp"

namespace ckp::testing {

template <typename A>
EngineResult<A> run_reference(const LocalInput& input, A& algo,
                              int max_rounds) {
  using State = typename A::State;
  input.validate();
  const Graph& g = *input.graph;
  const NodeId n = g.num_nodes();

  std::vector<int> labels;  // the port-ordered labels of the current node
  auto env_of = [&](NodeId v, int round) {
    labels.clear();
    if (!input.edge_labels.empty()) {
      for (EdgeId e : g.incident_edges(v)) {
        labels.push_back(input.edge_labels[static_cast<std::size_t>(e)]);
      }
    }
    NodeEnv env;
    env.index = v;
    env.degree = g.degree(v);
    env.declared_n = input.effective_n();
    env.declared_delta = input.effective_delta();
    env.id = input.has_ids() ? input.id_of(v) : kNoId;
    env.seed = input.seed;
    env.round = round;
    env.incident_edge_labels = labels;
    return env;
  };

  EngineResult<A> result;
  for (NodeId v = 0; v < n; ++v) {
    result.states.push_back(algo.init(env_of(v, 0)));
  }
  std::vector<char> halted(static_cast<std::size_t>(n), 0);
  std::vector<const State*> nbrs;
  NodeId num_halted = 0;
  while (num_halted < n && result.rounds < max_rounds) {
    std::vector<State> next = result.states;  // full copy every round
    for (NodeId v = 0; v < n; ++v) {
      if (halted[static_cast<std::size_t>(v)]) continue;
      nbrs.clear();
      for (NodeId u : g.neighbors(v)) {
        nbrs.push_back(&result.states[static_cast<std::size_t>(u)]);
      }
      if (algo.step(next[static_cast<std::size_t>(v)],
                    env_of(v, result.rounds + 1),
                    std::span<const State* const>(nbrs))) {
        halted[static_cast<std::size_t>(v)] = 1;
        ++num_halted;
      }
    }
    result.states = std::move(next);
    ++result.rounds;
  }
  result.all_halted = (num_halted == n);
  return result;
}

// State equality: operator== where the State defines one, else its bytes,
// which must then carry no padding.
template <typename S>
bool same_state(const S& a, const S& b) {
  if constexpr (std::equality_comparable<S>) {
    return a == b;
  } else {
    static_assert(std::has_unique_object_representations_v<S>,
                  "a State without operator== is compared bytewise, so it "
                  "must have no padding");
    return std::memcmp(&a, &b, sizeof(S)) == 0;
  }
}

// Runs `make()` on the reference engine and on run_local at threads
// {1, 2, 8} x {kStatic, kWorkStealing}, and expects every engine run to
// match the reference: round count, halting, and every final state.
template <typename Make>
void expect_matches_reference(const LocalInput& input, Make make,
                              int max_rounds) {
  auto ref_algo = make();
  const auto ref = run_reference(input, ref_algo, max_rounds);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      auto algo = make();
      const auto run = run_local(input, algo, max_rounds, nullptr, opts);
      const bool stealing = schedule == EngineSchedule::kWorkStealing;
      EXPECT_EQ(run.rounds, ref.rounds)
          << "threads=" << threads << " stealing=" << stealing;
      EXPECT_EQ(run.all_halted, ref.all_halted)
          << "threads=" << threads << " stealing=" << stealing;
      ASSERT_EQ(run.states.size(), ref.states.size());
      for (std::size_t v = 0; v < ref.states.size(); ++v) {
        ASSERT_TRUE(same_state(run.states[v], ref.states[v]))
            << "node " << v << " threads=" << threads
            << " stealing=" << stealing;
      }
    }
  }
}

}  // namespace ckp::testing
