#include "common/stats.hpp"

#include "common/check.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dfv::stats {
namespace {

TEST(Stats, MeanAndSum) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(sum(xs), 10.0);
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, KahanSummationResistsCancellation) {
  std::vector<double> xs(10000, 0.1);
  EXPECT_NEAR(sum(xs), 1000.0, 1e-9);
}

TEST(Stats, VarianceAndStddev) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(median(xs), 25.0);
}

TEST(Stats, PercentileRejectsBadQuantile) {
  const std::vector<double> xs = {1, 2};
  EXPECT_THROW((void)percentile(xs, 1.5), ContractError);
}

TEST(Stats, SummarizeConsistent) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  const std::vector<double> zs = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> xs = {1, 1, 1};
  const std::vector<double> ys = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, SpearmanMonotonicNonlinear) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(std::exp(x));  // monotone, nonlinear
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Stats, RanksAverageTies) {
  const std::vector<double> xs = {10, 20, 20, 30};
  const auto r = ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, OnlineMatchesBatch) {
  const std::vector<double> xs = {1.5, 2.5, -3.0, 7.25, 0.0, 4.5};
  Online o;
  for (double x : xs) o.add(x);
  EXPECT_EQ(o.count(), xs.size());
  EXPECT_NEAR(o.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(o.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(o.min(), -3.0);
  EXPECT_DOUBLE_EQ(o.max(), 7.25);
}

TEST(Stats, HistogramClampsOutliers) {
  const std::vector<double> xs = {-10, 0.5, 1.5, 2.5, 100};
  const auto h = histogram(xs, 0.0, 3.0, 3);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], 2u);  // -10 clamps into first bucket
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 2u);  // 100 clamps into last bucket
}

}  // namespace
}  // namespace dfv::stats
