// The packed Δ-coloring port (algo/delta_coloring_local.hpp): differentials
// against the retained src/core references (proper colorings, the same
// palette structure and shattering-statistic definitions), bit-identity with
// the naive reference engine and across threads × schedulers, the per-node
// byte budget the scale bench gates on, and the precondition rejections.
#include "algo/delta_coloring_local.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo/delta_coloring_local_program.hpp"
#include "core/delta_coloring_thm10.hpp"
#include "core/delta_coloring_thm11.hpp"
#include "graph/graph.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"
#include "reference_engine.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace ckp {
namespace {

LocalInput rand_input(const Graph& g, int delta, std::uint64_t seed) {
  LocalInput input;
  input.graph = &g;
  input.declared_delta = delta;
  input.seed = seed;
  return input;
}

// --- Thm10: differentials against the src/core reference oracle. ----------

TEST(DeltaColoringPacked, Thm10MatchesReferenceSemantics) {
  for (const int delta : {16, 32, 64}) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      Rng rng(mix_seed(seed, static_cast<std::uint64_t>(delta), 0xD10));
      const Graph g = make_random_tree(4000, delta, rng);
      const LocalInput input = rand_input(g, delta, seed);
      const auto packed = delta_coloring_thm10_local(input);
      ASSERT_TRUE(packed.completed);
      EXPECT_TRUE(verify_coloring(g, packed.colors, delta).ok)
          << "delta=" << delta << " seed=" << seed;

      RoundLedger ledger;
      const auto ref = delta_coloring_thm10(g, delta, seed, ledger);
      EXPECT_TRUE(verify_coloring(g, ref.colors, delta).ok);

      // Identical c_i schedule → identical phase-1 iteration count, and the
      // identical palette split: bad vertices color from the ⌊√Δ⌋ reserved
      // colors, everyone else from the phase-1 palette below them.
      EXPECT_EQ(packed.phase1_iterations, ref.phase1_iterations);
      const int reserve =
          static_cast<int>(isqrt(static_cast<std::uint64_t>(delta)));
      const int palette = delta - reserve;
      NodeId reserved_users = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const int c = packed.colors[static_cast<std::size_t>(v)];
        ASSERT_GE(c, 0);
        ASSERT_LT(c, delta);
        if (c >= palette) ++reserved_users;
      }
      // Every reserved-color user is a bad vertex (phase 1 never bids there).
      EXPECT_LE(reserved_users, packed.bad_vertices);
      EXPECT_LE(packed.largest_bad_component, packed.bad_vertices);
      // Shattering holds with the same thresholds: both sides' bad sets are
      // a vanishing fraction of the tree.
      EXPECT_LT(packed.bad_vertices, g.num_nodes() / 4);
      EXPECT_LT(ref.bad_vertices, g.num_nodes() / 4);
    }
  }
}

TEST(DeltaColoringPacked, Thm10SmallAndDegenerateTrees) {
  for (const NodeId n : {1, 2, 17, 100}) {
    const Graph g = make_complete_tree(n, 16);
    const auto packed = delta_coloring_thm10_local(rand_input(g, 16, 3));
    ASSERT_TRUE(packed.completed) << "n=" << n;
    EXPECT_TRUE(verify_coloring(g, packed.colors, 16).ok) << "n=" << n;
  }
}

// --- Thm11: differentials against the src/core reference oracle. ----------

TEST(DeltaColoringPacked, Thm11MatchesReferenceSemantics) {
  for (const int delta : {7, 16, 55}) {
    for (const std::uint64_t seed : {1ULL, 9ULL}) {
      Rng rng(mix_seed(seed, static_cast<std::uint64_t>(delta), 0xD11));
      const Graph g = make_random_tree(4000, delta, rng);
      const LocalInput input = rand_input(g, delta, seed);
      const auto packed = delta_coloring_thm11_local(input);
      ASSERT_TRUE(packed.completed);
      EXPECT_TRUE(verify_coloring(g, packed.colors, delta).ok)
          << "delta=" << delta << " seed=" << seed;

      RoundLedger ledger;
      const auto ref = delta_coloring_thm11(g, delta, seed, ledger);
      EXPECT_TRUE(verify_coloring(g, ref.colors, delta).ok);

      // Same residue-statistic definitions: S and U3 members take colors
      // from {0,1,2}; phase 1 colors from {3 .. Δ-1}.
      NodeId low_colors = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const int c = packed.colors[static_cast<std::size_t>(v)];
        ASSERT_GE(c, 0);
        ASSERT_LT(c, delta);
        if (c < 3) ++low_colors;
      }
      EXPECT_EQ(low_colors, packed.phase2_set_size + packed.phase3_set_size);
      EXPECT_LE(packed.phase2_largest_component, packed.phase2_set_size);
      // Both sides shatter: the uncolored residue is a vanishing fraction.
      EXPECT_LT(packed.phase2_set_size + packed.phase3_set_size,
                g.num_nodes() / 4);
      EXPECT_LT(ref.phase2_set_size + ref.phase3_set_size, g.num_nodes() / 4);
    }
  }
}

TEST(DeltaColoringPacked, Thm11SmallAndDegenerateTrees) {
  for (const NodeId n : {1, 2, 9, 100}) {
    const Graph g = make_complete_tree(n, 7);
    const auto packed = delta_coloring_thm11_local(rand_input(g, 7, 5));
    ASSERT_TRUE(packed.completed) << "n=" << n;
    EXPECT_TRUE(verify_coloring(g, packed.colors, 7).ok) << "n=" << n;
  }
}

// --- Bit-identity: reference engine, threads × schedulers. ---------------

TEST(DeltaColoringPacked, Thm10ThreadScheduleSimdAndGenericInvariant) {
  const int delta = 32;
  Rng rng(0xB1D);
  const Graph g = make_random_tree(3000, delta, rng);
  const LocalInput input = rand_input(g, delta, 11);

  testing::expect_matches_reference(
      input, [&] { return detail::thm10_program(delta, Thm10Params{}); },
      1 << 20);

  EngineOptions base;
  base.threads = 1;
  const auto baseline = delta_coloring_thm10_local(input, 1 << 20, base);
  ASSERT_TRUE(baseline.completed);
  for (const int threads : {2, 8}) {
    for (const auto schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      const auto run = delta_coloring_thm10_local(input, 1 << 20, opts);
      ASSERT_TRUE(run.completed);
      EXPECT_EQ(run.colors, baseline.colors)
          << "threads=" << threads
          << " ws=" << (schedule == EngineSchedule::kWorkStealing);
      EXPECT_EQ(run.rounds, baseline.rounds);
      EXPECT_EQ(run.bad_vertices, baseline.bad_vertices);
      EXPECT_EQ(run.largest_bad_component, baseline.largest_bad_component);
    }
  }
}

TEST(DeltaColoringPacked, Thm11ThreadScheduleSimdAndGenericInvariant) {
  const int delta = 16;
  Rng rng(0xB2D);
  const Graph g = make_random_tree(3000, delta, rng);
  const LocalInput input = rand_input(g, delta, 13);

  testing::expect_matches_reference(
      input, [&] { return detail::Thm11LocalAlgo{delta, delta - 3}; },
      1 << 20);

  EngineOptions base;
  base.threads = 1;
  const auto baseline = delta_coloring_thm11_local(input, 1 << 20, base);
  ASSERT_TRUE(baseline.completed);
  for (const int threads : {2, 8}) {
    for (const auto schedule :
         {EngineSchedule::kStatic, EngineSchedule::kWorkStealing}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.schedule = schedule;
      const auto run = delta_coloring_thm11_local(input, 1 << 20, opts);
      ASSERT_TRUE(run.completed);
      EXPECT_EQ(run.colors, baseline.colors)
          << "threads=" << threads
          << " ws=" << (schedule == EngineSchedule::kWorkStealing);
      EXPECT_EQ(run.rounds, baseline.rounds);
      EXPECT_EQ(run.phase2_set_size, baseline.phase2_set_size);
      EXPECT_EQ(run.phase2_largest_component,
                baseline.phase2_largest_component);
      EXPECT_EQ(run.phase3_set_size, baseline.phase3_set_size);
    }
  }
}

// --- Byte budget: the packed path must stay in the rng-algo envelope. -----

TEST(DeltaColoringPacked, PackedByteBudgetPerNode) {
  const Graph g = make_complete_tree(1 << 15, 16);
  EngineOptions opts;
  opts.threads = 2;
  const auto r10 = delta_coloring_thm10_local(rand_input(g, 16, 2), 1 << 20,
                                              opts);
  const auto r11 = delta_coloring_thm11_local(rand_input(g, 16, 2), 1 << 20,
                                              opts);
  ASSERT_TRUE(r10.completed);
  ASSERT_TRUE(r11.completed);
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  // Same envelope check_scale.sh gates: 48 B/node baseline + 32 B RNG.
  EXPECT_LE(r10.engine_bytes, (48 + 32) * n);
  EXPECT_LE(r11.engine_bytes, (48 + 32) * n);
}

// --- Precondition rejections. ---------------------------------------------

TEST(DeltaColoringPacked, RejectsPreconditionViolations) {
  const Graph g = make_complete_tree(200, 7);

  // Thm10 needs Δ >= 16 (reserve ⌊√Δ⌋ >= 3 wide, nonempty phase-1 palette).
  EXPECT_THROW(delta_coloring_thm10_local(rand_input(g, 8, 1)), CheckFailure);
  // Thm11 needs Δ >= 7 (peeling down to color 3 needs Δ-3 >= 4 iterations).
  EXPECT_THROW(delta_coloring_thm11_local(rand_input(g, 5, 1)), CheckFailure);

  // Declared Δ below the true max degree.
  const Graph wide = make_complete_tree(200, 20);
  EXPECT_THROW(delta_coloring_thm10_local(rand_input(wide, 16, 1)),
               CheckFailure);

  // RandLOCAL only: an ID-carrying input is rejected.
  const Graph t = make_complete_tree(64, 16);
  LocalInput with_ids = rand_input(t, 16, 1);
  with_ids.ids.resize(static_cast<std::size_t>(t.num_nodes()));
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    with_ids.ids[static_cast<std::size_t>(v)] =
        static_cast<std::uint64_t>(v) + 1;
  }
  EXPECT_THROW(delta_coloring_thm10_local(with_ids), CheckFailure);
  EXPECT_THROW(delta_coloring_thm11_local(with_ids), CheckFailure);

  // 9-bit color field: Δ > 511 must be rejected, not silently truncated.
  EXPECT_THROW(delta_coloring_thm10_local(rand_input(t, 512, 1)),
               CheckFailure);
  EXPECT_THROW(delta_coloring_thm11_local(rand_input(t, 512, 1)),
               CheckFailure);
}

}  // namespace
}  // namespace ckp
