#include "core/delta_coloring_thm10.hpp"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {
namespace {

// No padding bytes: gtest names each case by the raw bytes of its parameter,
// and padding left uninitialised would make the names differ between builds.
struct Thm10Case {
  std::int64_t delta;
  std::uint64_t seed;
};
static_assert(sizeof(Thm10Case) == 2 * sizeof(std::uint64_t));

class Thm10Sweep : public ::testing::TestWithParam<Thm10Case> {};

TEST_P(Thm10Sweep, ProperDeltaColoringOnTrees) {
  const int delta = static_cast<int>(GetParam().delta);
  const std::uint64_t seed = GetParam().seed;
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(delta), 0xAA));
  for (NodeId n : {1, 2, 100, 1000, 5000}) {
    const Graph g = make_random_tree(n, delta, rng);
    RoundLedger ledger;
    const auto result = delta_coloring_thm10(g, delta, seed, ledger);
    EXPECT_TRUE(verify_coloring(g, result.colors, delta).ok)
        << "n=" << n << " delta=" << delta << " seed=" << seed;
    EXPECT_EQ(result.rounds, ledger.rounds());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Thm10Sweep,
                         ::testing::Values(Thm10Case{16, 1}, Thm10Case{32, 1},
                                           Thm10Case{64, 2}, Thm10Case{100, 3},
                                           Thm10Case{128, 1}));

TEST(Thm10, RejectsSmallDelta) {
  const Graph g = make_path(10);
  RoundLedger ledger;
  EXPECT_THROW(delta_coloring_thm10(g, 8, 1, ledger), CheckFailure);
}

TEST(Thm10, CompleteTree) {
  const Graph g = make_complete_tree(30000, 32);
  RoundLedger ledger;
  const auto result = delta_coloring_thm10(g, 32, 9, ledger);
  EXPECT_TRUE(verify_coloring(g, result.colors, 32).ok);
}

TEST(Thm10, BadComponentsWithinTheoremBound) {
  // Paper claim: components of bad vertices have size <= Δ⁴ log n w.h.p.
  // (with practical constants the measured sizes are far below that).
  Rng rng(801);
  const int delta = 64;
  const Graph g = make_random_tree(20000, delta, rng);
  RoundLedger ledger;
  const auto result = delta_coloring_thm10(g, delta, 3, ledger);
  EXPECT_TRUE(verify_coloring(g, result.colors, delta).ok);
  const double bound = std::pow(static_cast<double>(delta), 4.0) *
                       std::log2(20000.0);
  EXPECT_LT(static_cast<double>(result.largest_bad_component), bound);
}

TEST(Thm10, PhaseAccounting) {
  Rng rng(809);
  const Graph g = make_random_tree(3000, 25, rng);
  RoundLedger ledger;
  const auto result = delta_coloring_thm10(g, 25, 5, ledger);
  EXPECT_EQ(result.trace.total_rounds(), result.rounds);
  EXPECT_GE(result.phase1_iterations, 2);
  EXPECT_LE(result.bad_vertices, g.num_nodes());
  EXPECT_LE(result.largest_bad_component, result.bad_vertices);
}

TEST(Thm10, PaperConstantsStillCorrect) {
  // With the paper's proof constants the c_i schedule barely moves, almost
  // everything lands in Phase 2 — but the output stays a proper coloring.
  Thm10Params paper;
  paper.alpha = 200.0;
  paper.growth_divisor = 3.0 * 200.0 * std::exp(200.0) >
                                 1e300  // exp(200) overflows the divisor's
                             ? 1e300    // intent; clamp to "never grows"
                             : 3.0 * 200.0 * std::exp(200.0);
  paper.cap_exponent = 0.1;
  paper.max_iterations = 8;
  Rng rng(811);
  const Graph g = make_random_tree(2000, 32, rng);
  RoundLedger ledger;
  const auto result = delta_coloring_thm10(g, 32, 13, ledger, paper);
  EXPECT_TRUE(verify_coloring(g, result.colors, 32).ok);
}

TEST(Thm10, DeterministicGivenSeed) {
  Rng rng(821);
  const Graph g = make_random_tree(2500, 40, rng);
  RoundLedger l1, l2;
  const auto a = delta_coloring_thm10(g, 40, 77, l1);
  const auto b = delta_coloring_thm10(g, 40, 77, l2);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Thm10, RoundsFlatInN) {
  Rng rng(823);
  const Graph small = make_random_tree(2000, 32, rng);
  const Graph large = make_random_tree(64000, 32, rng);
  RoundLedger ls, ll;
  const auto rs = delta_coloring_thm10(small, 32, 41, ls);
  const auto rl = delta_coloring_thm10(large, 32, 41, ll);
  EXPECT_TRUE(verify_coloring(large, rl.colors, 32).ok);
  EXPECT_LE(rl.rounds, rs.rounds + rs.rounds / 2 + 20);
}

TEST(Thm10, ManySeedsNeverFail) {
  Rng rng(827);
  const Graph g = make_random_tree(1500, 20, rng);
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    RoundLedger ledger;
    const auto result = delta_coloring_thm10(g, 20, seed, ledger);
    EXPECT_TRUE(verify_coloring(g, result.colors, 20).ok) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace ckp
