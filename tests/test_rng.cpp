#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace dfv {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitProducesDistinctStreams) {
  Rng parent(7);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1() == c2());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(9), p2(9);
  Rng a = p1.split(5), b = p2.split(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng r(5);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[std::size_t(r.uniform_index(10))];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 * 0.9);
    EXPECT_LT(c, n / 10 * 1.1);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng r(8);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalMedian) {
  Rng r(9);
  std::vector<double> xs(20001);
  for (auto& x : xs) x = r.lognormal(0.0, 0.5);
  std::nth_element(xs.begin(), xs.begin() + 10000, xs.end());
  EXPECT_NEAR(xs[10000], 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng r(10);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliProbability) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(15);
  for (int trial = 0; trial < 50; ++trial) {
    const auto s = r.sample_without_replacement(20, 7);
    ASSERT_EQ(s.size(), 7u);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (auto v : s) EXPECT_LT(v, 20u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng r(16);
  const auto s = r.sample_without_replacement(5, 5);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, HashCombineDiffers) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(1, 2), hash_combine(1, 3));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
}

}  // namespace
}  // namespace dfv
