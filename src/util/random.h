// Deterministic, fast pseudo-random number generation for simulations.
//
// All stochastic components of the library (encoders, network simulators,
// Monte-Carlo analysis) draw from prlc::Rng so that every experiment is
// reproducible from a single 64-bit seed. The generator is xoshiro256**,
// seeded through SplitMix64 per the reference implementation; it is far
// faster than std::mt19937_64 and has no observed statistical defects for
// this workload class.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace prlc {

/// SplitMix64 step — used for seeding and as a tiny standalone mixer.
/// Advances `state` and returns the mixed output.
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed; equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize the stream from `seed`.
  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit output.
  std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform(std::uint64_t bound) {
    PRLC_REQUIRE(bound > 0, "uniform bound must be positive");
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform_double() < p; }

  /// Fisher–Yates shuffle of a contiguous range.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = uniform(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Sample `k` distinct indices uniformly from [0, n) (unsorted).
  /// Floyd's algorithm: O(k) expected work, no O(n) scratch.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// Spawn an independent child generator; deterministic given the parent
  /// state. Used to give each Monte-Carlo trial its own stream.
  Rng split() {
    Rng child(0);
    std::uint64_t sm = (*this)();
    for (auto& word : child.state_) word = splitmix64_next(sm);
    return child;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Alias-method sampler for repeated draws from one discrete distribution.
/// Construction O(n); each draw O(1). Used for sampling coded-block levels
/// from a priority distribution millions of times.
class AliasTable {
 public:
  /// `weights` must be nonnegative with a positive sum.
  explicit AliasTable(std::span<const double> weights);

  /// Number of categories.
  std::size_t size() const { return prob_.size(); }

  /// Draw one category index.
  std::size_t sample(Rng& rng) const {
    const std::size_t i = rng.uniform(prob_.size());
    return rng.uniform_double() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

}  // namespace prlc
