#include "ml/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dfv::ml {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, AppendRowGrowsAndChecksWidth) {
  Matrix m;
  m.append_row(std::vector<double>{1, 2});
  m.append_row(std::vector<double>{3, 4});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m.append_row(std::vector<double>{1, 2, 3}), ContractError);
}

TEST(Matrix, RowViewIsMutable) {
  Matrix m(1, 2);
  m.row(0)[1] = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
}

TEST(Matrix, ColumnExtraction) {
  Matrix m(2, 2);
  m(0, 1) = 5.0;
  m(1, 1) = 7.0;
  const auto c = m.col(1);
  EXPECT_EQ(c, (std::vector<double>{5.0, 7.0}));
  EXPECT_THROW((void)m.col(2), ContractError);
}

TEST(Matrix, SelectRowsAndCols) {
  Matrix m(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = double(10 * r + c);
  const std::vector<std::size_t> rows = {2, 0};
  const Matrix mr = m.select_rows(rows);
  EXPECT_DOUBLE_EQ(mr(0, 1), 21.0);
  EXPECT_DOUBLE_EQ(mr(1, 1), 1.0);

  const std::vector<std::size_t> cols = {1};
  const Matrix mc = m.select_cols(cols);
  EXPECT_EQ(mc.cols(), 1u);
  EXPECT_DOUBLE_EQ(mc(2, 0), 21.0);
}

TEST(Matrix, DotProducts) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const auto y = m.dot(std::vector<double>{1.0, 1.0});
  EXPECT_EQ(y, (std::vector<double>{3.0, 7.0}));
  const auto t = m.tdot(std::vector<double>{1.0, 1.0});
  EXPECT_EQ(t, (std::vector<double>{4.0, 6.0}));
}

TEST(Matrix, GramIsSymmetricPsd) {
  Matrix m(3, 2);
  m(0, 0) = 1;
  m(1, 1) = 2;
  m(2, 0) = 3;
  const Matrix g = m.gram();
  EXPECT_DOUBLE_EQ(g(0, 1), g(1, 0));
  EXPECT_DOUBLE_EQ(g(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 4.0);
}

TEST(Matrix, BlockedOpsMatchNaiveLoops) {
  // gram/dot/tdot are cache-blocked but keep each output cell's
  // accumulation order identical to the naive loops, so the results are
  // bit-equal — including on data with exact zeros (the old gram had a
  // zero-skip branch this test pins the removal of).
  Rng rng(42);
  const std::size_t n = 137, f = 71;  // odd sizes exercise tile remainders
  Matrix m(n, f);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < f; ++c)
      m(r, c) = (r + c) % 5 == 0 ? 0.0 : rng.normal();

  // Naive references.
  Matrix g_ref(f, f);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < f; ++i)
      for (std::size_t j = i; j < f; ++j) g_ref(i, j) += m(r, i) * m(r, j);
  for (std::size_t i = 0; i < f; ++i)
    for (std::size_t j = 0; j < i; ++j) g_ref(i, j) = g_ref(j, i);

  std::vector<double> y(n), w(f);
  for (std::size_t r = 0; r < n; ++r) y[r] = rng.normal();
  for (std::size_t c = 0; c < f; ++c) w[c] = rng.normal();
  std::vector<double> tdot_ref(f, 0.0), dot_ref(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < f; ++c) tdot_ref[c] += m(r, c) * y[r];
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < f; ++c) s += m(r, c) * w[c];
    dot_ref[r] = s;
  }

  const Matrix g = m.gram();
  for (std::size_t i = 0; i < f; ++i)
    for (std::size_t j = 0; j < f; ++j) ASSERT_DOUBLE_EQ(g(i, j), g_ref(i, j));
  EXPECT_EQ(m.tdot(y), tdot_ref);
  EXPECT_EQ(m.dot(w), dot_ref);
}

std::vector<double> random_values(std::size_t n, Rng& rng) {
  // Normal draws with exact zeros mixed in: a skipped or reordered term
  // shows up as a flipped last bit or a flipped zero sign.
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i % 7 == 3 ? 0.0 : rng.normal();
  return v;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Matrix, AttentionKernelsMatchNaiveLoops) {
  // Every kernel the attention fit dispatches on a width (12, its
  // d_model) is compared bit for bit against the naive loop in its
  // documented accumulation order, at the dispatched width and at
  // generic ones, for row counts around the 4-row blocks.
  Rng rng(77);
  for (const std::size_t n : {1, 3, 4, 5, 241}) {
    for (const std::size_t period : {1, 7}) {
      // affine_rows: init seed, then ascending c.
      for (const std::size_t d : {12, 8}) {
        const std::size_t f = 13;
        const auto x = random_values(n * f, rng), wt = random_values(f * d, rng),
                   init = random_values(period * d, rng);
        std::vector<double> got(n * d), want(n * d);
        affine_rows(x.data(), n, f, wt.data(), d, init.data(), period, got.data());
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t j = 0; j < d; ++j) {
            double s = init[(r % period) * d + j];
            for (std::size_t c = 0; c < f; ++c) s += x[r * f + c] * wt[c * d + j];
            want[r * d + j] = s;
          }
        EXPECT_TRUE(same_bits(got, want)) << "affine_rows n " << n << " d " << d << " period "
                                          << period;
      }
      // tanh_backward_colsums: dz in place, then both sums in ascending r.
      for (const std::size_t d : {12, 5}) {
        const auto e = random_values(n * d, rng), de0 = random_values(n * d, rng),
                   gb0 = random_values(d, rng), gp0 = random_values(period * d, rng);
        std::vector<double> de = de0, gb = gb0, gp = gp0;
        tanh_backward_colsums(e.data(), n, d, period, de.data(), gb.data(), gp.data());
        std::vector<double> de_w = de0, gb_w = gb0, gp_w = gp0;
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t j = 0; j < d; ++j) {
            const double dz = de_w[r * d + j] * (1.0 - e[r * d + j] * e[r * d + j]);
            de_w[r * d + j] = dz;
            gb_w[j] += dz;
            gp_w[(r % period) * d + j] += dz;
          }
        EXPECT_TRUE(same_bits(de, de_w) && same_bits(gb, gb_w) && same_bits(gp, gp_w))
            << "tanh_backward_colsums n " << n << " d " << d << " period " << period;
      }
    }
    // matmul_nn: zero seed, then ascending k.
    for (const std::size_t d : {12, 8}) {
      const std::size_t k = 9;
      const auto a = random_values(n * k, rng), w = random_values(k * d, rng);
      std::vector<double> got(n * d), want(n * d);
      matmul_nn(a.data(), n, k, w.data(), d, got.data());
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t j = 0; j < d; ++j) {
          double s = 0.0;
          for (std::size_t kk = 0; kk < k; ++kk) s += a[r * k + kk] * w[kk * d + j];
          want[r * d + j] = s;
        }
      EXPECT_TRUE(same_bits(got, want)) << "matmul_nn n " << n << " d " << d;
    }
    // add_matmul_tn: onto the existing out, rows in ascending r. k = 12
    // takes the column-block path (d = 3 has no full 4-column block),
    // d = 12 the row path, (5, 7) the generic loop.
    const std::pair<std::size_t, std::size_t> kd[] = {{12, 3},  {12, 13}, {12, 16}, {12, 23},
                                                      {1, 12},  {16, 12}, {5, 7}};
    for (const auto& [k, d] : kd) {
      const auto a = random_values(n * k, rng), b = random_values(n * d, rng),
                 out0 = random_values(k * d, rng);
      std::vector<double> got = out0, want = out0;
      add_matmul_tn(a.data(), n, k, b.data(), d, got.data());
      for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < d; ++j)
          for (std::size_t r = 0; r < n; ++r) want[i * d + j] += a[r * k + i] * b[r * d + j];
      EXPECT_TRUE(same_bits(got, want)) << "add_matmul_tn n " << n << " k " << k << " d " << d;
    }
    // add_colsum and standardize_groups (strided windows of n groups).
    {
      const std::size_t d = 11, width = 13, stride = 23;
      const auto x = random_values(n * d, rng), out0 = random_values(d, rng);
      std::vector<double> got = out0, want = out0;
      add_colsum(x.data(), n, d, got.data());
      for (std::size_t r = 0; r < n; ++r)
        for (std::size_t j = 0; j < d; ++j) want[j] += x[r * d + j];
      EXPECT_TRUE(same_bits(got, want)) << "add_colsum n " << n;

      const auto src = random_values(n * stride, rng), mean = random_values(n * width, rng);
      std::vector<double> sd = random_values(n * width, rng);
      for (double& s : sd) s = 0.5 + std::fabs(s);
      std::vector<double> z(n * width), z_w(n * width);
      standardize_groups(src.data(), n, width, stride, mean.data(), sd.data(), z.data());
      for (std::size_t g = 0; g < n; ++g)
        for (std::size_t c = 0; c < width; ++c)
          z_w[g * width + c] = (src[g * stride + c] - mean[g * width + c]) / sd[g * width + c];
      EXPECT_TRUE(same_bits(z, z_w)) << "standardize_groups n " << n;
    }
  }
}

TEST(Cholesky, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  const auto x = cholesky_solve(a, {10, 9});
  EXPECT_NEAR(x[0], 1.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW((void)cholesky_solve(a, {1, 1}), ContractError);
}

}  // namespace
}  // namespace dfv::ml
