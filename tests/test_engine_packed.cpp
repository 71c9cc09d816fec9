// The engine's round loop (local/engine.hpp): bit-identity against the naive
// reference engine (tests/reference_engine.hpp) and across thread counts and
// schedulers on adversarially skewed active sets, for fixtures that read
// every NodeEnv field and for every node program in src/algo, the
// allocation-free certification of the round loop, and the engine-side byte
// accounting the scale benches gate on.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "algo/greedy_color.hpp"
#include "algo/greedy_color_program.hpp"
#include "algo/leader_election.hpp"
#include "algo/matching_local.hpp"
#include "algo/matching_local_program.hpp"
#include "algo/mis_ghaffari.hpp"
#include "algo/mis_ghaffari_program.hpp"
#include "algo/mis_luby.hpp"
#include "algo/mis_luby_program.hpp"
#include "algo/plus_one_coloring.hpp"
#include "algo/plus_one_coloring_program.hpp"
#include "algo/sinkless_local.hpp"
#include "algo/sinkless_local_program.hpp"
#include "lcl/verify_matching.hpp"
#include "graph/generators.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "lcl/verify_mis.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"
#include "local/ids.hpp"
#include "obs/observer.hpp"
#include "obs/resource.hpp"
#include "reference_engine.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace ckp {
namespace {

// DetLOCAL fixture with an adversarially skewed halt schedule: node v
// runs for lifetime(v) rounds, where most nodes die almost immediately and a
// sparse minority (every 97th node, clustered by the multiplier) lives ~30x
// longer. Under static chunking the surviving work concentrates in a few
// chunks — exactly the shape work stealing exists for — while the mixing
// term makes any cross-chunk read of a partially-updated state change the
// final words.
struct SkewedMixer {
  struct State {
    std::uint64_t acc = 0;
    std::uint32_t remaining = 0;
    std::uint32_t pad = 0;
    bool operator==(const State&) const = default;
  };

  State init(const NodeEnv& env) {
    const auto v = static_cast<std::uint32_t>(env.index);
    const std::uint32_t life = (v % 97 == 0) ? 60 + v % 13 : 1 + v % 3;
    return {0x9e3779b97f4a7c15ULL * (v + 1), life, 0};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    std::uint64_t acc = self.acc;
    for (const State* nb : nbrs) acc ^= (nb->acc >> 7) + nb->remaining;
    self.acc = acc * 0x2545F4914F6CDD1DULL + 1;
    return --self.remaining == 0;
  }
};

// RandLOCAL variant: same skew, but lifetimes and mixing draws come from the
// per-node private stream, so any scheduler-dependent interleaving of RNG
// consumption shows up as a state diff.
struct SkewedRandMixer {
  struct State {
    std::uint64_t acc = 0;
    std::uint32_t remaining = 0;
    std::uint32_t pad = 0;
    bool operator==(const State&) const = default;
  };

  State init(const NodeEnv& env) {
    const std::uint64_t r = env.random()();
    const std::uint32_t life =
        (env.index % 89 == 0) ? 50 + r % 16 : 1 + r % 4;
    return {r, life, 0};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    std::uint64_t acc = self.acc;
    for (const State* nb : nbrs) acc ^= nb->acc * 0x9e3779b97f4a7c15ULL;
    self.acc = acc + env.random()();
    return --self.remaining == 0;
  }
};

// DetLOCAL fixture reading the NodeEnv fields the mixers above leave out:
// the ID, the degree, the declared n and Δ, and the incident edge labels.
// Each neighbor's word is mixed with the label of the port it arrives on, so
// a label/port misalignment changes the final words.
struct LabelMixer {
  struct State {
    std::uint64_t acc = 0;
    std::uint32_t remaining = 0;
    std::uint32_t pad = 0;
  };

  State init(const NodeEnv& env) {
    const std::uint64_t acc = env.id * 0x9e3779b97f4a7c15ULL +
                              env.declared_n * 31 +
                              static_cast<std::uint64_t>(env.declared_delta);
    const auto life =
        static_cast<std::uint32_t>(1 + (env.id + env.degree) % 7);
    return {acc, life, 0};
  }

  bool step(State& self, const NodeEnv& env,
            std::span<const State* const> nbrs) {
    std::uint64_t acc = self.acc;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      acc = acc * 0x2545F4914F6CDD1DULL +
            (nbrs[i]->acc ^
             static_cast<std::uint64_t>(env.incident_edge_labels[i]));
    }
    self.acc = acc;
    return --self.remaining == 0;
  }
};

template <typename A>
void expect_same_run(const EngineResult<A>& a, const EngineResult<A>& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.all_halted, b.all_halted);
  ASSERT_EQ(a.states.size(), b.states.size());
  for (std::size_t i = 0; i < a.states.size(); ++i) {
    ASSERT_TRUE(a.states[i] == b.states[i]) << "state mismatch at node " << i;
  }
}

std::vector<Graph> fixture_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(make_complete_tree(700, 3));
  graphs.push_back(make_cycle(389));
  Rng rng(0xFAC7);
  graphs.push_back(make_random_regular(512, 6, rng));
  return graphs;
}

class RecordingObserver : public EngineObserver {
 public:
  std::vector<std::pair<NodeId, int>> halts;
  std::vector<NodeId> active_per_round;

  void on_node_halt(NodeId v, int round) override { halts.emplace_back(v, round); }
  void on_round_end(const RoundStats& stats) override {
    active_per_round.push_back(stats.active_nodes);
  }
};

template <typename A>
void check_schedule_invariance(const LocalInput& in, int max_rounds) {
  A seq_algo;
  EngineOptions seq_opts;
  seq_opts.threads = 1;
  const auto seq = run_local(in, seq_algo, max_rounds, nullptr, seq_opts);
  EXPECT_TRUE(seq.all_halted);

  RecordingObserver seq_obs;
  {
    A algo;
    run_local(in, algo, max_rounds, &seq_obs, seq_opts);
  }

  for (const int threads : {2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      A algo;
      RecordingObserver obs;
      const auto par = run_local(in, algo, max_rounds, &obs, opts);
      expect_same_run(seq, par);
      // Halt events: same nodes, same rounds, same order — the chunk-order
      // merge contract, independent of who computed each chunk.
      EXPECT_EQ(seq_obs.halts, obs.halts)
          << "threads=" << threads << " stealing="
          << (schedule == EngineSchedule::kWorkStealing);
      EXPECT_EQ(seq_obs.active_per_round, obs.active_per_round);
    }
  }
}

TEST(EnginePacked, DetSkewBitIdenticalAcrossThreadsAndSchedulers) {
  for (const Graph& g : fixture_graphs()) {
    LocalInput in;
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    check_schedule_invariance<SkewedMixer>(in, 200);
  }
}

TEST(EnginePacked, RandSkewBitIdenticalAcrossThreadsAndSchedulers) {
  for (const Graph& g : fixture_graphs()) {
    LocalInput in;
    in.graph = &g;
    in.seed = 0x5EED;
    check_schedule_invariance<SkewedRandMixer>(in, 200);
  }
}

// RandLOCAL fixture that opts out of private streams (needs_rng = false).
struct NoRngPacked {
  static constexpr bool needs_rng = false;

  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv& env) {
    return {static_cast<std::uint64_t>(env.index) + 1};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    for (const State* nb : nbrs) self.x += nb->x;
    return self.x > 1000;
  }
};

// Every fixture against the reference engine, on completed and truncated
// runs, at threads {1, 2, 8} x both schedulers. Together the fixtures read
// every NodeEnv field: index (SkewedMixer, NoRngPacked), the private stream
// (SkewedRandMixer), and ID, degree, declared n and Δ and edge labels
// (LabelMixer); NoRngPacked runs RandLOCAL with needs_rng = false. The name
// is kept from when the comparison ran against the forced generic loop, as
// for the *PackedMatchesGeneric* cases below; the reference engine is that
// full-copy loop.
TEST(EnginePacked, ForcedGenericMatchesPackedOnFixtures) {
  for (const Graph& g : fixture_graphs()) {
    for (const int max_rounds : {5, 200}) {
      LocalInput det;
      det.graph = &g;
      det.ids = sequential_ids(g.num_nodes());
      testing::expect_matches_reference(
          det, [] { return SkewedMixer{}; }, max_rounds);

      LocalInput rand;
      rand.graph = &g;
      rand.seed = 0x5EED;
      testing::expect_matches_reference(
          rand, [] { return SkewedRandMixer{}; }, max_rounds);
      testing::expect_matches_reference(
          rand, [] { return NoRngPacked{}; }, max_rounds);

      LocalInput labeled = det;
      Rng rng(0x1AB);
      labeled.ids = random_ids(g.num_nodes(), 30, rng);
      labeled.declared_n = 3 * static_cast<std::uint64_t>(g.num_nodes());
      labeled.declared_delta = g.max_degree() + 2;
      labeled.edge_labels.resize(static_cast<std::size_t>(g.num_edges()));
      for (int& label : labeled.edge_labels) {
        label = static_cast<int>(rng.next_below(1000));
      }
      testing::expect_matches_reference(
          labeled, [] { return LabelMixer{}; }, max_rounds);
    }
  }
}

// The round loop prefetches the neighbor states of the node
// kPrefetchDistance positions ahead, but only inside the current chunk. On
// graphs of n = 1..7 every chunk is shorter than that distance, so the
// prefetch window is empty or clipped at each chunk's end; n = 8, 9 and 17
// put it exactly at, and just past, a chunk boundary. The skewed fixtures
// halt most nodes early, so later rounds step short, ragged active lists.
TEST(EnginePacked, ChunksShorterThanPrefetchDistanceMatchReference) {
  static_assert(detail::kPrefetchDistance == 8,
                "retune the graph sizes below to the new distance");
  for (const NodeId n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17}) {
    std::vector<Graph> graphs;
    graphs.push_back(make_path(n));
    graphs.push_back(make_star(n));
    graphs.push_back(make_complete(n));
    for (const Graph& g : graphs) {
      for (const int max_rounds : {2, 200}) {
        LocalInput det;
        det.graph = &g;
        det.ids = sequential_ids(g.num_nodes());
        testing::expect_matches_reference(
            det, [] { return SkewedMixer{}; }, max_rounds);

        LocalInput rand;
        rand.graph = &g;
        rand.seed = 0x5EED;
        testing::expect_matches_reference(
            rand, [] { return SkewedRandMixer{}; }, max_rounds);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential tests for the node programs in src/algo: run_local must match
// the reference engine at every thread count and scheduler, and the
// wrappers' outputs must verify and respect their engine-side byte budgets.

TEST(EnginePacked, LubyPackedMatchesGeneric) {
  Rng rng(0x1B1);
  const Graph g = make_random_regular(600, 5, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 3;
  testing::expect_matches_reference(
      in, [] { return detail::LubyAlgo{}; }, 1 << 20);
  const auto out = mis_luby(in);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(verify_mis(g, out.in_set).ok);
}

TEST(EnginePacked, GreedyColorPackedMatchesGenericAndMeetsBudget) {
  Rng rng(0x6C);
  const Graph g = make_random_regular(1024, 4, rng);
  LocalInput in;
  in.graph = &g;
  in.ids = random_ids(g.num_nodes(), 20, rng);
  testing::expect_matches_reference(
      in, [] { return detail::GreedyColorAlgo{5}; }, 1 << 20);
  const auto out = greedy_color_local(in, 5);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(verify_coloring(g, out.colors, 5).ok);
  // The scale bench's DetLOCAL budget: <= 48 engine-side bytes per node.
  EXPECT_LE(out.engine_bytes,
            48u * static_cast<std::uint64_t>(g.num_nodes()));
}

TEST(EnginePacked, SinklessPackedMatchesGenericAndVerifies) {
  Rng rng(0x51A);
  const auto inst = make_random_bipartite_regular(256, 4, rng);
  LocalInput in;
  in.graph = &inst.graph;
  in.seed = 9;
  in.edge_labels = inst.edge_color;
  testing::expect_matches_reference(
      in, [] { return detail::SinklessAlgo{}; }, 1 << 14);
  const auto out = sinkless_local(in);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(verify_sinkless_orientation(inst.graph, out.orient).ok);
}

TEST(EnginePacked, SinklessThreadAndScheduleInvariant) {
  Rng rng(0x51B);
  const auto inst = make_random_bipartite_regular(200, 3, rng);
  LocalInput in;
  in.graph = &inst.graph;
  in.seed = 4;
  in.edge_labels = inst.edge_color;
  const auto base = sinkless_local(in);
  for (const int threads : {2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      const auto run = sinkless_local(in, 1 << 14, opts);
      EXPECT_EQ(base.rounds, run.rounds);
      EXPECT_EQ(base.orient, run.orient);
      EXPECT_EQ(base.completed, run.completed);
    }
  }
}

TEST(EnginePacked, SinklessRejectsMalformedInput) {
  Rng rng(0xBAD);
  const auto inst = make_random_bipartite_regular(32, 3, rng);
  {
    LocalInput in;  // DetLOCAL input: ids are forbidden
    in.graph = &inst.graph;
    in.ids = sequential_ids(inst.graph.num_nodes());
    in.edge_labels = inst.edge_color;
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
  {
    LocalInput in;  // missing labels
    in.graph = &inst.graph;
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
  {
    LocalInput in;  // improper coloring: two edges at node 0 share a color
    in.graph = &inst.graph;
    std::vector<int> bad = inst.edge_color;
    const auto incident = inst.graph.incident_edges(0);
    bad[static_cast<std::size_t>(incident[1])] =
        bad[static_cast<std::size_t>(incident[0])];
    in.edge_labels = bad;
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
  {
    const Graph path = Graph::from_edges(2, {{0, 1}});  // degree-1 node
    LocalInput in;
    in.graph = &path;
    in.edge_labels = {0};
    EXPECT_THROW(sinkless_local(in), CheckFailure);
  }
}

TEST(EnginePacked, GhaffariPackedMatchesGenericAndVerifies) {
  Rng rng(0x6AFF);
  const Graph g = make_random_regular(800, 6, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 17;
  GhaffariMisParams params;
  params.phase1_iterations = 12;
  testing::expect_matches_reference(
      in, [] { return detail::GhaffariLocalAlgo{12}; }, 1 << 20);
  const auto out = mis_ghaffari_local(in, 1 << 20, EngineOptions{}, params);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(verify_mis(g, out.in_set).ok);
  // Shattering accounting is internally consistent.
  EXPECT_LE(out.largest_residue_component, out.residue_nodes);
  EXPECT_LE(out.residue_nodes, g.num_nodes());
  EXPECT_LE(out.phase1_rounds, out.rounds);
}

TEST(EnginePacked, GhaffariThreadScheduleAndSimdInvariant) {
  const Graph g = make_complete_tree(700, 3);
  LocalInput in;
  in.graph = &g;
  in.seed = 5;
  const auto base = mis_ghaffari_local(in);
  EXPECT_TRUE(base.completed);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      const auto run = mis_ghaffari_local(in, 1 << 20, opts);
      EXPECT_EQ(base.rounds, run.rounds);
      EXPECT_EQ(base.in_set, run.in_set);
      EXPECT_EQ(base.residue_nodes, run.residue_nodes);
      EXPECT_EQ(base.largest_residue_component,
                run.largest_residue_component);
    }
  }
}

TEST(EnginePacked, GhaffariRejectsMalformedInput) {
  const Graph g = make_cycle(16);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(g.num_nodes());  // RandLOCAL: ids forbidden
  EXPECT_THROW(mis_ghaffari_local(in), CheckFailure);
  LocalInput rand_in;
  rand_in.graph = &g;
  GhaffariMisParams params;
  params.phase1_iterations = 300;  // exceeds the 8-bit packed counter
  EXPECT_THROW(mis_ghaffari_local(rand_in, 1 << 20, EngineOptions{}, params),
               CheckFailure);
}

TEST(EnginePacked, MatchingRandomizedPackedMatchesGenericAndVerifies) {
  Rng rng(0x3A7C);
  const Graph g = make_random_regular(600, 5, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 23;
  // The wrapper labels edge e with e; the program reads those labels.
  LocalInput labeled = in;
  labeled.edge_labels.resize(static_cast<std::size_t>(g.num_edges()));
  std::iota(labeled.edge_labels.begin(), labeled.edge_labels.end(), 0);
  testing::expect_matches_reference(
      labeled, [&] { return detail::MatchRandAlgo{in.seed}; }, 1 << 20);
  const auto out = matching_randomized_local(in);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(verify_maximal_matching(g, out.in_matching).ok);
}

TEST(EnginePacked, MatchingDeterministicPackedMatchesGenericAndVerifies) {
  Rng rng(0x3A7D);
  const Graph g = make_complete_tree(500, 4);
  LocalInput in;
  in.graph = &g;
  in.ids = random_ids(g.num_nodes(), 27, rng);
  testing::expect_matches_reference(
      in, [] { return detail::MatchDetAlgo{}; }, 1 << 20);
  const auto out = matching_deterministic_local(in);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(verify_maximal_matching(g, out.in_matching).ok);
}

TEST(EnginePacked, MatchingThreadScheduleAndSimdInvariant) {
  Rng rng(0x3A7E);
  const Graph g = make_random_regular(512, 4, rng);
  LocalInput rand_in;
  rand_in.graph = &g;
  rand_in.seed = 31;
  LocalInput det_in;
  det_in.graph = &g;
  det_in.ids = random_ids(g.num_nodes(), 26, rng);
  const auto rand_base = matching_randomized_local(rand_in);
  const auto det_base = matching_deterministic_local(det_in);
  EXPECT_TRUE(rand_base.completed);
  EXPECT_TRUE(det_base.completed);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      const auto r = matching_randomized_local(rand_in, 1 << 20, opts);
      EXPECT_EQ(rand_base.rounds, r.rounds);
      EXPECT_EQ(rand_base.in_matching, r.in_matching);
      const auto d = matching_deterministic_local(det_in, 1 << 20, opts);
      EXPECT_EQ(det_base.rounds, d.rounds);
      EXPECT_EQ(det_base.in_matching, d.in_matching);
    }
  }
}

TEST(EnginePacked, MatchingRejectsMalformedInput) {
  const Graph g = make_cycle(16);
  {
    LocalInput in;  // randomized: ids forbidden
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    EXPECT_THROW(matching_randomized_local(in), CheckFailure);
  }
  {
    LocalInput in;  // randomized: labels are synthesized, not accepted
    in.graph = &g;
    in.edge_labels.assign(static_cast<std::size_t>(g.num_edges()), 0);
    EXPECT_THROW(matching_randomized_local(in), CheckFailure);
  }
  {
    LocalInput in;  // deterministic: ids required
    in.graph = &g;
    EXPECT_THROW(matching_deterministic_local(in), CheckFailure);
  }
  {
    LocalInput in;  // deterministic: ids must fit below 2^28 - 1
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    in.ids[0] = 1ULL << 28;
    EXPECT_THROW(matching_deterministic_local(in), CheckFailure);
  }
}

TEST(EnginePacked, PlusOnePackedMatchesGenericAndVerifies) {
  Rng rng(0xA1B2);
  const Graph g = make_random_regular(700, 6, rng);
  LocalInput in;
  in.graph = &g;
  in.seed = 41;
  const int palette = g.max_degree() + 1;
  testing::expect_matches_reference(
      in, [&] { return detail::PlusOneLocalAlgo{palette}; }, 1 << 20);
  const auto out = plus_one_local(in);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(verify_coloring(g, out.colors, palette).ok);
}

TEST(EnginePacked, PlusOneThreadScheduleAndSimdInvariant) {
  const Graph g = make_complete_tree(600, 3);
  LocalInput in;
  in.graph = &g;
  in.seed = 43;
  const auto base = plus_one_local(in);
  EXPECT_TRUE(base.completed);
  for (const int threads : {1, 2, 8}) {
    for (const EngineSchedule schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      const auto run = plus_one_local(in, 0, 1 << 20, opts);
      EXPECT_EQ(base.rounds, run.rounds);
      EXPECT_EQ(base.colors, run.colors);
    }
  }
}

TEST(EnginePacked, PlusOneRejectsMalformedInput) {
  const Graph g = make_cycle(16);
  {
    LocalInput in;  // RandLOCAL: ids forbidden
    in.graph = &g;
    in.ids = sequential_ids(g.num_nodes());
    EXPECT_THROW(plus_one_local(in), CheckFailure);
  }
  LocalInput in;
  in.graph = &g;
  EXPECT_THROW(plus_one_local(in, 2), CheckFailure);   // palette < Δ+1
  EXPECT_THROW(plus_one_local(in, 65), CheckFailure);  // palette > mask width
}

// ---------------------------------------------------------------------------
// The engine's flag-driven left-pack compacts the active list in place
// (dst == src). Check it against an out-of-place copy on sizes around the
// old vector widths and with both flag senses.

TEST(EnginePacked, CompactByFlagInPlaceAliasing) {
  Rng rng(0xA11A5);
  for (const std::int64_t count : {1, 7, 8, 9, 24, 31, 32, 33, 257}) {
    std::vector<NodeId> data(static_cast<std::size_t>(count));
    std::vector<std::uint8_t> flags(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      data[static_cast<std::size_t>(i)] = static_cast<NodeId>(i * 3 + 1);
      flags[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(rng.next_below(2));
    }
    for (const bool want : {false, true}) {
      std::vector<NodeId> expected;
      for (std::int64_t i = 0; i < count; ++i) {
        if ((flags[static_cast<std::size_t>(i)] != 0) == want) {
          expected.push_back(data[static_cast<std::size_t>(i)]);
        }
      }
      std::vector<NodeId> in_place = data;
      const std::int64_t kept = detail::compact_by_flag(
          in_place.data(), in_place.data(), flags.data(), count, want);
      ASSERT_EQ(kept, static_cast<std::int64_t>(expected.size()))
          << "count=" << count << " want=" << want;
      in_place.resize(static_cast<std::size_t>(kept));
      EXPECT_EQ(in_place, expected) << "count=" << count << " want=" << want;
    }
  }
}

// ---------------------------------------------------------------------------
// The needs_rng opt-out: an algorithm declaring needs_rng = false gets no
// per-node streams (32 B/node cheaper in RandLOCAL mode) and a loud failure
// if it draws anyway.

struct LyingNoRngPacked {
  static constexpr bool needs_rng = false;

  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv&) { return {0}; }

  bool step(State& self, const NodeEnv& env, std::span<const State* const>) {
    self.x = env.random()();  // declared needs_rng = false: must throw
    return true;
  }
};

// Twin of NoRngPacked that keeps the default needs_rng = true: the engine
// footprints of the two runs differ by exactly the per-node stream array.
struct NoRngPackedWithStreams {
  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv& env) {
    return {static_cast<std::uint64_t>(env.index) + 1};
  }

  bool step(State& self, const NodeEnv&, std::span<const State* const> nbrs) {
    for (const State* nb : nbrs) self.x += nb->x;
    return self.x > 1000;
  }
};

static_assert(detail::needs_rng_v<SkewedRandMixer>);  // default is true
static_assert(!detail::needs_rng_v<NoRngPacked>);

TEST(EnginePacked, NeedsRngOptOutSkipsStreamsAndFailsLoudlyOnDraws) {
  const Graph g = make_cycle(128);
  LocalInput in;  // RandLOCAL (no ids) — would normally allocate streams
  in.graph = &g;
  NoRngPacked lean_algo;
  const auto lean = run_local(in, lean_algo, 100, nullptr, EngineOptions{});
  EXPECT_TRUE(lean.all_halted);
  NoRngPackedWithStreams full_algo;
  const auto full = run_local(in, full_algo, 100, nullptr, EngineOptions{});
  EXPECT_EQ(lean.rounds, full.rounds);
  ASSERT_EQ(lean.states.size(), full.states.size());
  for (std::size_t i = 0; i < lean.states.size(); ++i) {
    EXPECT_EQ(lean.states[i].x, full.states[i].x);
  }
  EXPECT_EQ(full.engine_bytes,
            lean.engine_bytes +
                sizeof(Rng) * static_cast<std::uint64_t>(g.num_nodes()));
  LyingNoRngPacked liar;
  EXPECT_THROW(run_local(in, liar, 10, nullptr, EngineOptions{}),
               CheckFailure);
}

// ---------------------------------------------------------------------------
// Allocation-free certification. The engine wraps its round loop in
// AssertNoAlloc when unobserved; a step that allocates must therefore fail
// loudly instead of silently degrading the hot path.

struct AllocatingPacked {
  struct State {
    std::uint64_t x = 0;
  };

  State init(const NodeEnv&) { return {1}; }

  bool step(State& self, const NodeEnv&, std::span<const State* const>) {
    std::vector<std::uint64_t> scratch(8, self.x);  // heap churn in the loop
    self.x = scratch.back() + 1;
    return self.x > 3;
  }
};

TEST(EnginePacked, AllocatingStepFailsTheNoAllocCertification) {
#if CKP_SANITIZER_MAY_OWN_ALLOCATOR
  if (!alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer runtime owns operator new; allocation "
                    "counters are idle in this build";
  }
#endif
  const Graph g = make_cycle(64);
  LocalInput in;
  in.graph = &g;
  in.ids = sequential_ids(g.num_nodes());
  AllocatingPacked algo;
  EXPECT_THROW(run_local(in, algo, 10, nullptr, EngineOptions{}),
               CheckFailure);
}

TEST(EnginePacked, PortedAlgorithmsPassTheNoAllocCertification) {
  // These runs go through the guarded round loop; completing without a
  // CheckFailure is the certification. The engine only engages the guard
  // when the interposed counters are live, so skip (rather than pass
  // vacuously) when a sanitizer runtime owns the allocator.
#if CKP_SANITIZER_MAY_OWN_ALLOCATOR
  if (!alloc_counting_active()) {
    GTEST_SKIP() << "sanitizer runtime owns operator new; allocation "
                    "counters are idle in this build";
  }
#endif
  Rng rng(0xCE27);
  const auto inst = make_random_bipartite_regular(128, 3, rng);
  LocalInput rand_in;
  rand_in.graph = &inst.graph;
  rand_in.seed = 2;
  EXPECT_TRUE(mis_luby(rand_in).completed);
  EXPECT_TRUE(mis_ghaffari_local(rand_in).completed);
  EXPECT_TRUE(matching_randomized_local(rand_in).completed);
  EXPECT_TRUE(plus_one_local(rand_in).completed);
  rand_in.edge_labels = inst.edge_color;
  sinkless_local(rand_in);
  LocalInput det_in;
  det_in.graph = &inst.graph;
  det_in.ids = sequential_ids(inst.graph.num_nodes());
  EXPECT_TRUE(greedy_color_local(det_in, 4).completed);
  EXPECT_TRUE(matching_deterministic_local(det_in).completed);
  EXPECT_TRUE(elect_leader(det_in).completed);  // once on the generic loop
}

}  // namespace
}  // namespace ckp
