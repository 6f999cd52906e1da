#include "common/rng.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "common/check.hpp"

namespace dfv {

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded sampling.
  if (n == 0) return 0;
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  return lo + static_cast<std::int64_t>(uniform_index(std::uint64_t(hi - lo) + 1));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) noexcept { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) noexcept {
  if (k > n) k = n;
  // Partial Fisher–Yates over an index vector. The draw sequence (one
  // uniform_index(n - i) per pick) never depends on the index type, so
  // the scratch narrows to uint32 whenever n fits: the transient buffer
  // is the sampler's whole memory footprint, and at a million rows the
  // narrow type halves it (8 MB -> 4 MB at peak).
  // The result is handed back as a capacity-k vector either way:
  // resize(k) alone would keep the full n-element buffer alive in the
  // caller for as long as the sample is retained.
  if (n <= std::size_t(std::numeric_limits<std::uint32_t>::max())) {
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = std::uint32_t(i);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + uniform_index(n - i);
      std::swap(idx[i], idx[j]);
    }
    return {idx.begin(), idx.begin() + std::ptrdiff_t(k)};
  }
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(idx[i], idx[j]);
  }
  return {idx.begin(), idx.begin() + std::ptrdiff_t(k)};
}

}  // namespace dfv
