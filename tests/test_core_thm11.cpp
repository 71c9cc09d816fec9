#include "core/delta_coloring_thm11.hpp"

#include <cstdint>

#include <gtest/gtest.h>

#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace ckp {
namespace {

// No padding bytes: gtest names each case by the raw bytes of its parameter,
// and padding left uninitialised would make the names differ between builds.
struct Thm11Case {
  std::int64_t delta;
  std::uint64_t seed;
};
static_assert(sizeof(Thm11Case) == 2 * sizeof(std::uint64_t));

class Thm11Sweep : public ::testing::TestWithParam<Thm11Case> {};

TEST_P(Thm11Sweep, ProperDeltaColoringOnTrees) {
  const int delta = static_cast<int>(GetParam().delta);
  const std::uint64_t seed = GetParam().seed;
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(delta)));
  for (NodeId n : {1, 2, 50, 500, 2000}) {
    const Graph g = make_random_tree(n, delta, rng);
    RoundLedger ledger;
    const auto result = delta_coloring_thm11(g, delta, seed, ledger);
    EXPECT_TRUE(verify_coloring(g, result.colors, delta).ok)
        << "n=" << n << " delta=" << delta << " seed=" << seed;
    EXPECT_EQ(result.rounds, ledger.rounds());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Thm11Sweep,
                         ::testing::Values(Thm11Case{7, 1}, Thm11Case{16, 1},
                                           Thm11Case{55, 1}, Thm11Case{55, 2},
                                           Thm11Case{64, 3}));

TEST(Thm11, CompleteTreeWorstCase) {
  const int delta = 55;
  const Graph g = make_complete_tree(20000, delta);
  RoundLedger ledger;
  const auto result = delta_coloring_thm11(g, delta, 7, ledger);
  EXPECT_TRUE(verify_coloring(g, result.colors, delta).ok);
}

TEST(Thm11, DeltaAboveTrueMaxDegree) {
  // Running with palette Δ > Δ(G) is allowed (more slack).
  Rng rng(701);
  const Graph g = make_random_tree(300, 5, rng);
  RoundLedger ledger;
  const auto result = delta_coloring_thm11(g, 9, 3, ledger);
  EXPECT_TRUE(verify_coloring(g, result.colors, 9).ok);
}

TEST(Thm11, RejectsBadParameters) {
  const Graph g = make_star(9);  // Δ = 8
  RoundLedger ledger;
  EXPECT_THROW(delta_coloring_thm11(g, 6, 1, ledger), CheckFailure);
  EXPECT_THROW(delta_coloring_thm11(g, 7, 1, ledger), CheckFailure);  // < Δ(G)
}

TEST(Thm11, PhaseTelemetryConsistent) {
  Rng rng(703);
  const Graph g = make_random_tree(4000, 16, rng);
  RoundLedger ledger;
  const auto result = delta_coloring_thm11(g, 16, 5, ledger);
  EXPECT_TRUE(verify_coloring(g, result.colors, 16).ok);
  // Trace phases sum to the reported rounds.
  EXPECT_EQ(result.trace.total_rounds(), result.rounds);
  // The phase-2 set is a subset of the original vertices and components
  // cannot exceed it.
  EXPECT_LE(result.phase2_largest_component, result.phase2_set_size);
  EXPECT_LE(result.phase2_set_size + result.phase3_set_size, g.num_nodes());
}

TEST(Thm11, ShatteringSmallComponentsAtDelta55) {
  // The paper's headline regime: Δ >= 55 implies O(log n) components in S
  // w.h.p. Check a generous multiple.
  Rng rng(709);
  const Graph g = make_random_tree(30000, 55, rng);
  RoundLedger ledger;
  const auto result = delta_coloring_thm11(g, 55, 17, ledger);
  EXPECT_TRUE(verify_coloring(g, result.colors, 55).ok);
  EXPECT_LE(result.phase2_largest_component, 60);  // ~4 log2(30000)
}

TEST(Thm11, RoundsFlatInN) {
  // O(log_Δ log n + log* n): growing n by 64x at Δ=16 adds only a few
  // rounds.
  Rng rng(719);
  const Graph small = make_random_tree(1000, 16, rng);
  const Graph large = make_random_tree(64000, 16, rng);
  RoundLedger ls, ll;
  const auto rs = delta_coloring_thm11(small, 16, 23, ls);
  const auto rl = delta_coloring_thm11(large, 16, 23, ll);
  EXPECT_TRUE(verify_coloring(small, rs.colors, 16).ok);
  EXPECT_TRUE(verify_coloring(large, rl.colors, 16).ok);
  EXPECT_LE(rl.rounds, rs.rounds + rs.rounds / 2 + 20);
}

TEST(Thm11, DeterministicGivenSeed) {
  Rng rng(727);
  const Graph g = make_random_tree(800, 12, rng);
  RoundLedger l1, l2;
  const auto a = delta_coloring_thm11(g, 12, 31, l1);
  const auto b = delta_coloring_thm11(g, 12, 31, l2);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Thm11, ManySeedsNeverFail) {
  // Correctness is seed-independent (only round counts vary): exercise many
  // seeds on a moderately large tree.
  Rng rng(733);
  const Graph g = make_random_tree(1500, 20, rng);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    RoundLedger ledger;
    const auto result = delta_coloring_thm11(g, 20, seed, ledger);
    EXPECT_TRUE(verify_coloring(g, result.colors, 20).ok) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace ckp
