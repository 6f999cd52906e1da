#include "ml/mutual_info.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dfv::ml {
namespace {

TEST(MutualInfo, IdenticalVariablesEqualEntropy) {
  const std::vector<int> x = {0, 0, 1, 1, 1, 0, 1, 0};
  EXPECT_NEAR(mutual_information(x, x), entropy(x), 1e-12);
}

TEST(MutualInfo, DeterministicFunctionPreservesMi) {
  const std::vector<int> x = {0, 1, 0, 1, 1, 0};
  std::vector<int> y;
  for (int v : x) y.push_back(1 - v);  // bijection
  EXPECT_NEAR(mutual_information(x, y), entropy(x), 1e-12);
}

TEST(MutualInfo, IndependentVariablesNearZero) {
  Rng rng(5);
  std::vector<int> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(int(rng.bernoulli(0.5)));
    y.push_back(int(rng.bernoulli(0.3)));
  }
  EXPECT_LT(mutual_information(x, y), 0.002);
}

TEST(MutualInfo, Symmetric) {
  Rng rng(6);
  std::vector<int> x, y;
  for (int i = 0; i < 500; ++i) {
    const int v = int(rng.uniform_index(3));
    x.push_back(v);
    y.push_back(rng.bernoulli(0.7) ? v : int(rng.uniform_index(3)));
  }
  EXPECT_NEAR(mutual_information(x, y), mutual_information(y, x), 1e-12);
  EXPECT_GT(mutual_information(x, y), 0.1);  // strongly dependent
}

TEST(MutualInfo, BoundedByMinEntropy) {
  const std::vector<int> x = {0, 1, 2, 3, 0, 1, 2, 3};
  const std::vector<int> y = {0, 0, 1, 1, 0, 0, 1, 1};
  const double mi = mutual_information(x, y);
  EXPECT_LE(mi, entropy(y) + 1e-12);
  EXPECT_LE(mi, entropy(x) + 1e-12);
}

TEST(MutualInfo, ConstantVariableGivesZero) {
  // Exactly zero, not an ulp above it: a user present in every run (or in
  // none) must not rank above a real zero.
  Rng rng(3);
  for (std::size_t n = 3; n <= 64; ++n) {
    std::vector<int> y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = int(i % 2 == 0 || rng.bernoulli(0.4));
    const std::vector<double> acc = count_probabilities(n);
    for (int v : {0, 1}) {
      const std::vector<int> c(n, v);
      EXPECT_EQ(mutual_information(c, y), 0.0) << "n " << n << " value " << v;
      EXPECT_EQ(mutual_information(y, c), 0.0) << "n " << n << " value " << v;
      Counts2x2 joint{};
      for (std::size_t i = 0; i < n; ++i) ++joint[std::size_t(c[i])][std::size_t(y[i])];
      EXPECT_EQ(mutual_information(joint, acc), 0.0) << "n " << n << " value " << v;
    }
    EXPECT_EQ(mutual_information(std::vector<int>(n, 7), y), 0.0) << "n " << n;
  }
}

TEST(MutualInfo, BinaryDoubleConvenience) {
  const std::vector<double> x = {0, 1, 0, 1};
  const std::vector<double> y = {0, 1, 0, 1};
  EXPECT_NEAR(mutual_information_binary(x, y), std::log(2.0), 1e-12);
}

TEST(MutualInfo, SizeMismatchThrows) {
  const std::vector<int> x = {1};
  const std::vector<int> y = {1, 2};
  EXPECT_THROW((void)mutual_information(x, y), ContractError);
}

TEST(MutualInfo, CountFormMatchesColumns) {
  // The count form reads every probability from one cumulative table, so
  // it must equal the column form bit for bit, constant columns included.
  Rng rng(11);
  for (std::size_t n = 1; n <= 300; ++n) {
    const std::vector<double> acc = count_probabilities(n);
    ASSERT_EQ(acc.size(), n + 1);
    for (int trial = 0; trial < 4; ++trial) {
      // Trials 0 and 1 hold x, then y, constant; the rest are random.
      const double px = trial == 0 ? 0.0 : rng.uniform();
      const double py = trial == 1 ? 1.0 : rng.uniform();
      std::vector<int> xs(n), ys(n);
      Counts2x2 joint{};
      for (std::size_t i = 0; i < n; ++i) {
        xs[i] = int(rng.bernoulli(px));
        ys[i] = int(rng.bernoulli(py));
        ++joint[std::size_t(xs[i])][std::size_t(ys[i])];
      }
      const double want = mutual_information(xs, ys);
      const double got = mutual_information(joint, acc);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "n " << n << " trial " << trial << ": " << got << " vs " << want;
    }
  }
  const Counts2x2 two = {{{1, 0}, {0, 1}}};
  EXPECT_THROW((void)mutual_information(two, count_probabilities(3)), ContractError);
}

TEST(Entropy, UniformAndDegenerate) {
  const std::vector<int> uniform = {0, 1, 2, 3};
  EXPECT_NEAR(entropy(uniform), std::log(4.0), 1e-12);
  const std::vector<int> constant(5, 9);
  EXPECT_DOUBLE_EQ(entropy(constant), 0.0);
  EXPECT_DOUBLE_EQ(entropy(std::vector<int>{}), 0.0);
}

}  // namespace
}  // namespace dfv::ml
