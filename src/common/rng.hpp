// Deterministic, splittable pseudo-random number generation.
//
// Everything in the simulator is seeded from a single campaign seed so
// that runs are bit-reproducible. We use xoshiro256** (public-domain
// algorithm by Blackman & Vigna) seeded through SplitMix64, which is the
// standard way to expand a 64-bit seed into generator state.
#pragma once

#include <cstdint>
#include <vector>

namespace dfv {

/// SplitMix64: stateless 64-bit mix used for seeding and hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash-combine two 64-bit values (used to derive substream seeds).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** PRNG with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator, so it can also be handed to
/// <random> distributions, but the built-in helpers below are preferred
/// because their output is stable across standard libraries.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x8badf00ddeadbeefULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& w : state_) w = splitmix64(sm);
  }

  /// Derive an independent child generator (substream) for component `tag`.
  [[nodiscard]] Rng split(std::uint64_t tag) const noexcept {
    Rng child(hash_combine(state_[0] ^ state_[3], tag));
    return child;
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
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

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept { return double((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box–Muller (cached second draw).
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Exponential with given rate (mean = 1/rate).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Bernoulli trial with probability p.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k) noexcept;

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace dfv
