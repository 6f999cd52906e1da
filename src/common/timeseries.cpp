#include "common/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dfv {

double OuProcess::step(double dt, Rng& rng) noexcept {
  // Exact discretization of the OU SDE over a step of length dt.
  const double e = std::exp(-theta_ * dt);
  const double var = (sigma_ * sigma_) / (2.0 * theta_) * (1.0 - e * e);
  x_ = mu_ + (x_ - mu_) * e + std::sqrt(std::max(var, 0.0)) * rng.normal();
  return x_;
}

double Ar1::step(Rng& rng) noexcept {
  x_ = phi_ * x_ + sigma_ * rng.normal();
  return x_;
}

std::vector<double> mean_curve(const std::vector<std::vector<double>>& series) {
  if (series.empty()) return {};
  const std::size_t T = series.front().size();
  std::vector<double> out(T, 0.0);
  for (const auto& s : series) {
    DFV_CHECK(s.size() == T);
    for (std::size_t t = 0; t < T; ++t) out[t] += s[t];
  }
  for (double& v : out) v /= double(series.size());
  return out;
}

}  // namespace dfv
