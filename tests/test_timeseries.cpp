#include "common/timeseries.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace dfv {
namespace {

/// Lag-1 autocorrelation of a series.
double autocorrelation_lag1(const std::vector<double>& xs) {
  const double m = stats::mean(xs);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double d = xs[i] - m;
    den += d * d;
    if (i + 1 < xs.size()) num += d * (xs[i + 1] - m);
  }
  return num / den;
}

TEST(OuProcess, MeanReversion) {
  Rng rng(1);
  OuProcess ou(/*theta=*/0.5, /*mu=*/10.0, /*sigma=*/0.0, /*x0=*/0.0);
  for (int i = 0; i < 100; ++i) (void)ou.step(1.0, rng);
  EXPECT_NEAR(ou.value(), 10.0, 1e-6);  // no noise: pure decay to mu
}

TEST(OuProcess, StationaryVariance) {
  Rng rng(2);
  const double theta = 1.0, sigma = 0.5;
  OuProcess ou(theta, 0.0, sigma, 0.0);
  std::vector<double> xs;
  for (int i = 0; i < 60000; ++i) xs.push_back(ou.step(0.5, rng));
  // Stationary variance of OU = sigma^2 / (2 theta).
  EXPECT_NEAR(stats::variance(xs), sigma * sigma / (2 * theta), 0.02);
  EXPECT_NEAR(stats::mean(xs), 0.0, 0.02);
}

TEST(OuProcess, AutocorrelationDecaysWithTheta) {
  Rng rng(3);
  OuProcess slow(0.01, 0.0, 1.0, 0.0), fast(5.0, 0.0, 1.0, 0.0);
  std::vector<double> xs_slow, xs_fast;
  for (int i = 0; i < 20000; ++i) {
    xs_slow.push_back(slow.step(1.0, rng));
    xs_fast.push_back(fast.step(1.0, rng));
  }
  EXPECT_GT(autocorrelation_lag1(xs_slow), 0.9);
  EXPECT_LT(autocorrelation_lag1(xs_fast), 0.2);
}

TEST(Ar1, StationaryVariance) {
  Rng rng(4);
  const double phi = 0.8, sigma = 1.0;
  Ar1 ar(phi, sigma);
  std::vector<double> xs;
  for (int i = 0; i < 60000; ++i) xs.push_back(ar.step(rng));
  EXPECT_NEAR(stats::variance(xs), sigma * sigma / (1 - phi * phi), 0.1);
  EXPECT_NEAR(autocorrelation_lag1(xs), phi, 0.02);
}

TEST(MeanCurve, ColumnMeans) {
  const std::vector<std::vector<double>> series = {{1, 2, 3}, {3, 4, 5}};
  const auto m = mean_curve(series);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[2], 4.0);
}

TEST(MeanCurve, RejectsRaggedSeries) {
  const std::vector<std::vector<double>> ragged = {{1, 2}, {1}};
  EXPECT_THROW((void)mean_curve(ragged), ContractError);
}

}  // namespace
}  // namespace dfv
