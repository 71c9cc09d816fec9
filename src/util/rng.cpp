#include "util/rng.hpp"

namespace ckp {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t s = a;
  std::uint64_t out = splitmix64(s);
  s ^= b + 0x9e3779b97f4a7c15ULL;
  out ^= splitmix64(s);
  s ^= c + 0x7f4a7c159e3779b9ULL;
  out ^= splitmix64(s);
  return out;
}

Rng::Rng(std::uint64_t seed) {
  // Never allow the all-zero state; SplitMix64 from any seed avoids it.
  std::uint64_t s = seed;
  for (auto& w : s_) w = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  CKP_CHECK(bound > 0);
  // Lemire-style rejection without 128-bit widening: classic modulo rejection.
  const std::uint64_t limit = max() - max() % bound;
  std::uint64_t x;
  do {
    x = (*this)();
  } while (x >= limit);
  return x % bound;
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  CKP_CHECK(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::next_bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Rng node_rng(std::uint64_t master, std::uint64_t node, std::uint64_t epoch) {
  return Rng(mix_seed(master, node * 0x100000001b3ULL + 0xcbf29ce4ULL, epoch));
}

}  // namespace ckp
