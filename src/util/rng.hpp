// Deterministic, splittable random number generation.
//
// Array-style algorithms hold private, independent random streams (engine
// node programs draw counter-based hashes instead: NodeEnv::draw). To make
// whole simulations reproducible from a single master seed, each node's
// stream is derived as Xoshiro256** seeded by SplitMix64(master_seed,
// node_id, epoch). SplitMix64 is the recommended seeder for the xoshiro
// family and guarantees well-distributed, decorrelated starting states.
#pragma once

#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace ckp {

// One step of the SplitMix64 sequence starting at `x`. Useful as a mixer.
// Inline: every NodeEnv::draw runs three.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Mixes several words into one seed via repeated SplitMix64 absorption.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b = 0,
                       std::uint64_t c = 0);

// Xoshiro256** by Blackman & Vigna: fast, 256-bit state, passes BigCrush.
// Satisfies the C++ UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xc0ffee123456789ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  // Uniform integer in [0, bound), bias-free via rejection. bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1) with 53 random bits.
  double next_double();

  // True with probability p (clamped to [0,1]).
  bool next_bernoulli(double p);

  // A single uniformly random bit.
  bool next_bit() { return ((*this)() >> 63) != 0; }

 private:
  std::uint64_t s_[4];
};

// Derives the private random stream of node `node` in epoch `epoch` of a
// simulation with master seed `master`. Distinct (master, node, epoch)
// triples yield decorrelated streams.
Rng node_rng(std::uint64_t master, std::uint64_t node, std::uint64_t epoch = 0);

}  // namespace ckp
