// Time-series building blocks used by the simulator (temporally
// autocorrelated background traffic) and by the analysis pipeline
// (mean-centering, sliding windows).
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace dfv {

/// Ornstein–Uhlenbeck process, discretized: mean-reverting noise whose
/// autocorrelation over lag dt decays as exp(-theta * dt). Drives the
/// traffic intensity of background jobs so that past network counters
/// carry information about future steps (the property the forecasting
/// experiments of the paper rely on).
class OuProcess {
 public:
  /// theta: mean reversion rate [1/s]; mu: long-run mean; sigma: volatility.
  OuProcess(double theta, double mu, double sigma, double x0) noexcept
      : theta_(theta), mu_(mu), sigma_(sigma), x_(x0) {}

  /// Advance by dt seconds and return the new value.
  [[nodiscard]] double step(double dt, Rng& rng) noexcept;

  [[nodiscard]] double value() const noexcept { return x_; }
  void set_value(double x) noexcept { x_ = x; }

 private:
  double theta_, mu_, sigma_, x_;
};

/// First-order autoregressive process: x' = phi * x + noise.
class Ar1 {
 public:
  Ar1(double phi, double noise_stddev, double x0 = 0.0) noexcept
      : phi_(phi), sigma_(noise_stddev), x_(x0) {}

  [[nodiscard]] double step(Rng& rng) noexcept;
  [[nodiscard]] double value() const noexcept { return x_; }

 private:
  double phi_, sigma_, x_;
};

/// Column means over a set of equal-length series: result[t] = mean_i series[i][t].
[[nodiscard]] std::vector<double> mean_curve(const std::vector<std::vector<double>>& series);

}  // namespace dfv
