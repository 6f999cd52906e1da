#include "ml/attention.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <new>

#include "common/integrity.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "ml/compiled.hpp"
#include "ml/metrics.hpp"

// Global allocation hook: while `g_recording` is set, remember the largest
// single request. FitMakesNoPerWindowCopy reads it around one fit.
namespace {
std::atomic<bool> g_recording{false};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n) {
  if (g_recording.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dfv::ml {
namespace {

AttentionParams fast_params(std::uint64_t seed = 0xa77) {
  AttentionParams p;
  p.d_model = 8;
  p.d_hidden = 8;
  p.epochs = 60;
  p.batch = 16;
  p.seed = seed;
  return p;
}

/// Windows where the target is a weighted sum of one feature's history:
/// y = 2 * x[t-1][f0] + x[t-2][f0] + 60 (f1 is noise).
void make_temporal(std::size_t n, int m, Matrix& x, std::vector<double>& y, Rng& rng) {
  const int F = 2;
  x = Matrix(n, std::size_t(m) * F);
  y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int t = 0; t < m; ++t) {
      x(i, std::size_t(t) * F + 0) = rng.uniform(-1, 1);
      x(i, std::size_t(t) * F + 1) = rng.uniform(-1, 1);
    }
    y[i] = 60.0 + 2.0 * x(i, std::size_t(m - 1) * F) + x(i, std::size_t(m - 2) * F);
  }
}

TEST(Attention, LearnsTemporalPattern) {
  Rng rng(1);
  Matrix x;
  std::vector<double> y;
  const int m = 4;
  make_temporal(800, m, x, y, rng);

  AttentionParams p = fast_params();
  p.epochs = 150;
  AttentionForecaster model(m, 2, p);
  model.fit(x, y);

  // Held-out windows.
  Matrix xt;
  std::vector<double> yt;
  make_temporal(200, m, xt, yt, rng);
  const double err = mape(yt, model.predict(xt));
  EXPECT_LT(err, 1.5);  // % error on targets near 60

  // Far better than predicting the mean.
  const std::vector<double> mean_pred(yt.size(), 60.0);
  EXPECT_LT(err, 0.5 * mape(yt, mean_pred));
}

TEST(Attention, OverfitsTinyDataset) {
  Rng rng(2);
  Matrix x;
  std::vector<double> y;
  make_temporal(16, 3, x, y, rng);
  AttentionParams p = fast_params();
  p.epochs = 300;
  AttentionForecaster model(3, 2, p);
  model.fit(x, y);
  EXPECT_LT(mape(y, model.predict(x)), 1.0);
}

TEST(Attention, PermutationImportanceFindsInformativeFeature) {
  Rng rng(3);
  Matrix x;
  std::vector<double> y;
  make_temporal(800, 4, x, y, rng);
  AttentionForecaster model(4, 2, fast_params());
  model.fit(x, y);
  Rng perm_rng(7);
  const auto imp = model.permutation_importance(x, y, perm_rng);
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 0.8);  // feature 0 drives the target
  EXPECT_LT(imp[1], 0.2);
}

TEST(Attention, AttentionWeightsAreDistribution) {
  Rng rng(4);
  Matrix x;
  std::vector<double> y;
  const int m = 5;
  make_temporal(300, m, x, y, rng);
  AttentionForecaster model(m, 2, fast_params());
  model.fit(x, y);
  const auto w = model.attention_weights(x.row(0));
  ASSERT_EQ(w.size(), std::size_t(m));
  double sum = 0.0;
  for (double v : w) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Attention, DeterministicGivenSeed) {
  Rng rng(5);
  Matrix x;
  std::vector<double> y;
  make_temporal(200, 3, x, y, rng);
  AttentionForecaster a(3, 2, fast_params(42)), b(3, 2, fast_params(42));
  a.fit(x, y);
  b.fit(x, y);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(a.predict_one(x.row(i)), b.predict_one(x.row(i)));
}

TEST(Attention, BatchedFitBitIdenticalToReference) {
  // The blocked-kernel fast path and the scalar per-sample reference
  // must produce the exact same model: identical bits, not just close.
  Rng rng(11);
  Matrix x;
  std::vector<double> y;
  make_temporal(203, 5, x, y, rng);  // odd n exercises the partial slab
  AttentionForecaster fast(5, 2, fast_params(7)), ref(5, 2, fast_params(7));
  fast.fit(x, y);
  ref.fit_reference(x, y);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double pf = fast.predict_one(x.row(i));
    const double pr = ref.predict_one(x.row(i));
    EXPECT_EQ(pf, pr) << "prediction bits diverge at row " << i;
  }
}

TEST(Attention, BatchedPredictMatchesPredictOne) {
  Rng rng(12);
  Matrix x;
  std::vector<double> y;
  make_temporal(61, 4, x, y, rng);
  AttentionForecaster model(4, 2, fast_params());
  model.fit(x, y);
  const std::vector<double> batched = model.predict(x);
  ASSERT_EQ(batched.size(), x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i)
    EXPECT_EQ(batched[i], model.predict_one(x.row(i))) << "row " << i;
}

TEST(Attention, StridedViewFitMatchesDenseFit) {
  // Feeding the same samples through a strided RowBatch view (window
  // chunks gathered from a wider table) must match the dense fit bit
  // for bit — this is the contract the forecasting window cache relies
  // on.
  Rng rng(13);
  const std::size_t n = 97, m = 3, width = 2, stride = 5;
  Matrix table(n * m, stride);  // each sample: m rows of a 5-wide table
  for (std::size_t r = 0; r < table.rows(); ++r)
    for (std::size_t c = 0; c < stride; ++c) table(r, c) = rng.uniform(-1, 1);
  std::vector<const double*> base(n);
  for (std::size_t i = 0; i < n; ++i) base[i] = table.row(i * m).data();
  const RowBatch views{base, m, width, stride};

  Matrix dense(n, m * width);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    views.gather(i, dense.row(i).data());
    y[i] = 60.0 + 2.0 * dense(i, (m - 1) * width) + dense(i, (m - 2) * width);
  }

  AttentionForecaster a(int(m), int(width), fast_params(21));
  AttentionForecaster b(int(m), int(width), fast_params(21));
  a.fit(views, y);
  b.fit(dense, y);
  const std::vector<double> pa = a.predict(views);
  const std::vector<double> pb = b.predict(dense);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(pa[i], pb[i]) << "row " << i;
}

/// n windows of m steps, each a strided view (width f) into a wider
/// table, with a target driven by the last two steps' first feature.
struct StridedSamples {
  std::size_t m, f;
  Matrix table;
  std::vector<const double*> base;
  std::vector<double> y;

  StridedSamples(std::size_t n, std::size_t m_, std::size_t f_, std::size_t stride, Rng& rng)
      : m(m_), f(f_), table(n * m_, stride), base(n), y(n) {
    for (std::size_t r = 0; r < table.rows(); ++r)
      for (std::size_t c = 0; c < stride; ++c) table(r, c) = rng.uniform(-1, 1);
    for (std::size_t i = 0; i < n; ++i) base[i] = table.row(i * m).data();
    for (std::size_t i = 0; i < n; ++i)
      y[i] = 60.0 + 2.0 * table(i * m + m - 1, 0) + table(i * m + m - 2, 0);
  }
  [[nodiscard]] RowBatch views() const { return {base, m, f, table.cols()}; }
};

TEST(Attention, GoldenFitDigest) {
  // Pins the fit's output bits across commits: an FNV-1a hash of the
  // predictions of a model trained on strided window views.
  Rng rng(17);
  const StridedSamples s(131, 4, 3, 7, rng);
  AttentionForecaster model(4, 3, fast_params(29));
  model.fit(s.views(), s.y);
  std::uint64_t h = kFnvBasis;
  for (double p : model.predict(s.views())) {
    const auto u = std::bit_cast<std::uint64_t>(p);
    h = fnv1a64_update(h, &u, sizeof u);
  }
  EXPECT_EQ(h, 0x68acfee0446b894dull) << "0x" << std::hex << h;
}

TEST(Attention, SerializedModelGolden) {
  // Pins the bytes of a trained model, which are what a cached model file
  // holds: if this moves, bump the format tag in the model header
  // (kModelFormat in src/api/session.cpp), or caches keep serving models
  // the old training code produced.
  Rng rng(17);
  const StridedSamples s(131, 4, 3, 7, rng);
  AttentionForecaster model(4, 3, fast_params(29));
  model.fit(s.views(), s.y);
  const std::string bytes = model.to_bytes();
  // 4 u32 shape fields; 8x3 + 8 + 4x8 + 8 + 8x8 + 8 + 8 weights, b_out,
  // 12 means, 12 stddevs, the target mean and stddev.
  EXPECT_EQ(bytes.size(), 16u + 8u * (24 + 8 + 32 + 8 + 64 + 8 + 8 + 1 + 12 + 12 + 2));
  const std::uint64_t h = fnv1a64(bytes);
  EXPECT_EQ(h, 0x54a49923f42f9bfbull) << "0x" << std::hex << h;
}

TEST(Attention, FromBytesPredictsBitIdentically) {
  Rng rng(23);
  const StridedSamples s(90, 5, 4, 9, rng);
  AttentionForecaster model(5, 4, fast_params(3));
  model.fit(s.views(), s.y);
  const AttentionForecaster back =
      AttentionForecaster::from_bytes(5, 4, fast_params(3), model.to_bytes());
  EXPECT_EQ(back.to_bytes(), model.to_bytes());
  const std::vector<double> want = model.predict_reference(s.views());
  const std::vector<double> got = back.compile().predict_many(s.views());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << "row " << i;
}

TEST(Attention, FromBytesRejectsAnotherShapeOrLength) {
  Rng rng(5);
  const StridedSamples s(40, 3, 2, 4, rng);
  AttentionForecaster model(3, 2, fast_params());
  model.fit(s.views(), s.y);
  const std::string bytes = model.to_bytes();
  AttentionParams wider = fast_params();
  wider.d_hidden = 9;
  EXPECT_THROW((void)AttentionForecaster::from_bytes(4, 2, fast_params(), bytes), ContractError);
  EXPECT_THROW((void)AttentionForecaster::from_bytes(3, 3, fast_params(), bytes), ContractError);
  EXPECT_THROW((void)AttentionForecaster::from_bytes(3, 2, wider, bytes), ContractError);
  EXPECT_THROW((void)AttentionForecaster::from_bytes(3, 2, fast_params(), bytes + "x"),
               ContractError);
  EXPECT_THROW((void)AttentionForecaster::from_bytes(3, 2, fast_params(), bytes.substr(0, 40)),
               ContractError);
  EXPECT_THROW((void)AttentionForecaster::from_bytes(3, 2, fast_params(), ""), ContractError);
  // An unfitted model has no scaler statistics to write.
  EXPECT_THROW((void)AttentionForecaster(3, 2, fast_params()).to_bytes(), ContractError);
}

TEST(Attention, ProductionShapesMatchReference) {
  // The forecast grids train at the default widths (d_model 12, d_hidden
  // 16) on 13..23 features per step: the shapes the dispatched kernels
  // serve. At each shape the batched fit must equal the per-sample
  // reference bit for bit at 1 and 8 threads, and the predictions are
  // pinned across commits by an FNV-1a digest.
  const std::size_t n = 75;  // two full minibatches plus an 11-row one (partial slab)
  std::uint64_t digest[2] = {kFnvBasis, kFnvBasis};
  const int thread_counts[2] = {1, 8};
  for (int ti = 0; ti < 2; ++ti) {
    exec::ThreadPool::instance().resize(thread_counts[ti]);
    for (const std::size_t f : {std::size_t(13), std::size_t(23)})
      for (const std::size_t m : {std::size_t(3), std::size_t(10)}) {
        Rng rng(hash_combine(31, f * 100 + m));
        Matrix x(n, m * f);
        std::vector<double> y(n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t c = 0; c < m * f; ++c) x(i, c) = rng.uniform(-2, 2);
          y[i] = 60.0 + 2.0 * x(i, (m - 1) * f) + x(i, (m - 2) * f + 1);
        }
        AttentionParams p;  // production widths
        p.epochs = 20;
        p.seed = 0x5eed + f + m;
        AttentionForecaster fast(int(m), int(f), p), ref(int(m), int(f), p);
        fast.fit(x, y);
        ref.fit_reference(x, y);
        const std::vector<double> pf = fast.predict(x), pr = ref.predict(x);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(pf[i]), std::bit_cast<std::uint64_t>(pr[i]))
              << "f " << f << " m " << m << " row " << i << " at " << thread_counts[ti]
              << " threads";
          const auto u = std::bit_cast<std::uint64_t>(pf[i]);
          digest[ti] = fnv1a64_update(digest[ti], &u, sizeof u);
        }
      }
  }
  exec::ThreadPool::instance().resize(exec::resolve_threads());
  EXPECT_EQ(digest[0], digest[1]);
  EXPECT_EQ(digest[0], 0x865b559a7fb38e10ull) << "0x" << std::hex << digest[0];
}

TEST(Attention, FitMakesNoPerWindowCopy) {
  // Training reads the strided views slab by slab; no allocation may hold
  // a copy of the training set (n * m * f doubles) or any sizable share
  // of it.
  const std::size_t n = 4000, m = 10, f = 13;
  Rng rng(19);
  const StridedSamples s(n, m, f, 23, rng);
  AttentionParams p = fast_params();
  p.epochs = 1;
  AttentionForecaster model(int(m), int(f), p);
  g_largest = 0;
  const RowBatch views = s.views();
  g_recording = true;
  model.fit(views, s.y);
  g_recording = false;
  EXPECT_LT(g_largest.load(), n * m * f * sizeof(double) / 4);
}

TEST(Attention, InputValidation) {
  AttentionForecaster model(3, 2, fast_params());
  Matrix wrong(4, 5);  // should be 3*2 = 6 columns
  const std::vector<double> y(4, 1.0);
  EXPECT_THROW(model.fit(wrong, y), ContractError);
  EXPECT_THROW((void)AttentionForecaster(0, 2), ContractError);
}

}  // namespace
}  // namespace dfv::ml
