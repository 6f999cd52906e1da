// Bit-identity contract of the compiled inference path (ml/compiled.hpp):
// every CompiledGbr/CompiledAttention prediction, and every model predict
// method that routes through it, must equal the oracle bit for bit — the
// per-tree GBR walks (predict_one/predict_binned) and the attention
// AttentionForecaster::predict_reference forward — for any thread count,
// for batch and single-row APIs alike. All comparisons here are EXPECT_EQ
// on doubles — no tolerances anywhere.
#include "ml/compiled.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "ml/attention.hpp"
#include "ml/gbr.hpp"

namespace dfv::ml {
namespace {

/// Run `fn` under pool widths 1, 2, and 8 (restoring the default after)
/// and hand it the width for failure messages.
template <typename Fn>
void for_thread_counts(Fn&& fn) {
  for (const int threads : {1, 2, 8}) {
    exec::ThreadPool::instance().resize(threads);
    fn(threads);
  }
  exec::ThreadPool::instance().resize(exec::resolve_threads());
}

void make_design(std::size_t n, std::size_t f, std::uint64_t seed, Matrix& x,
                 std::vector<double>& y) {
  Rng rng(seed);
  x = Matrix(n, f);
  y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < f; ++c) x(i, c) = rng.normal();
    y[i] = 2.0 * x(i, 1) + std::sin(3.0 * x(i, f - 1)) + 0.1 * rng.normal();
  }
}

// ---------------------------------------------------------------------------
// CompiledGbr.
// ---------------------------------------------------------------------------

class CompiledGbrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    make_design(600, 7, 41, x_, y_);
    rows_.resize(x_.rows());
    for (std::size_t i = 0; i < rows_.size(); ++i) rows_[i] = i;
    binned_ = std::make_unique<BinnedDataset>(x_, params_.tree.histogram_bins);
    gbr_ = std::make_unique<GradientBoostedRegressor>(params_);
    gbr_->fit(*binned_, y_, rows_, FeatureMask::all(x_.cols()));
  }

  Matrix x_;
  std::vector<double> y_;
  std::vector<std::size_t> rows_;
  GbrParams params_;
  std::unique_ptr<BinnedDataset> binned_;
  std::unique_ptr<GradientBoostedRegressor> gbr_;
};

TEST_F(CompiledGbrTest, PredictOneBitIdentical) {
  const CompiledGbr compiled = gbr_->compile();
  EXPECT_EQ(compiled.tree_count(), gbr_->tree_count());
  EXPECT_GT(compiled.node_count(), compiled.tree_count());  // real splits
  for (std::size_t r = 0; r < x_.rows(); ++r)
    EXPECT_EQ(compiled.predict_one(x_.row(r)), gbr_->predict_one(x_.row(r)));
}

TEST_F(CompiledGbrTest, PredictBinnedBitIdentical) {
  const CompiledGbr compiled = gbr_->compile();
  for (std::size_t r = 0; r < binned_->rows(); ++r) {
    EXPECT_EQ(compiled.predict_binned(*binned_, r), gbr_->predict_binned(*binned_, r));
    // The uint8-code walk and the double walk agree on the training view.
    EXPECT_EQ(compiled.predict_binned(*binned_, r), compiled.predict_one(x_.row(r)));
  }
}

TEST_F(CompiledGbrTest, PredictManyBitIdenticalAcrossThreadCounts) {
  const CompiledGbr compiled = gbr_->compile();
  // Reference from the scalar per-row path, explicitly not the compiled
  // route.
  std::vector<double> want(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i)
    want[i] = gbr_->predict_binned(*binned_, rows_[i]);
  for_thread_counts([&](int threads) {
    const std::vector<double> got = compiled.predict_many(*binned_, rows_);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "row " << i << " at " << threads << " threads";
  });
}

TEST_F(CompiledGbrTest, PredictManyHandlesShuffledSubsets) {
  const CompiledGbr compiled = gbr_->compile();
  // A CV-fold-shaped view: non-contiguous, unordered row indices.
  std::vector<std::size_t> fold;
  for (std::size_t r = 0; r < binned_->rows(); r += 3) fold.push_back(r);
  Rng rng(7);
  rng.shuffle(fold);
  const std::vector<double> got = compiled.predict_many(*binned_, fold);
  for (std::size_t i = 0; i < fold.size(); ++i)
    EXPECT_EQ(got[i], gbr_->predict_binned(*binned_, fold[i]));
}

TEST_F(CompiledGbrTest, BatchPredictMatchesPerRowWalk) {
  // The public predict/predict_rows entry points run the compiled kernel;
  // the per-tree predict_binned/predict_one walks are the oracle.
  for_thread_counts([&](int threads) {
    const std::vector<double> got_rows = gbr_->predict_rows(*binned_, rows_);
    const std::vector<double> got_mat = gbr_->predict(x_);
    ASSERT_EQ(got_rows.size(), rows_.size());
    ASSERT_EQ(got_mat.size(), x_.rows());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      EXPECT_EQ(got_rows[i], gbr_->predict_binned(*binned_, rows_[i]))
          << "row " << i << " at " << threads << " threads";
      EXPECT_EQ(got_mat[i], gbr_->predict_one(x_.row(i)))
          << "row " << i << " at " << threads << " threads";
    }
  });
}

TEST(CompiledGbrEdge, EmptyEnsemblePredictsZero) {
  // An unfitted model compiles to an f0-only predictor (f0 == 0).
  const GradientBoostedRegressor gbr;
  const CompiledGbr compiled = gbr.compile();
  EXPECT_EQ(compiled.tree_count(), 0u);
  EXPECT_EQ(compiled.node_count(), 0u);
  EXPECT_EQ(compiled.max_feature(), -1);
  const std::vector<double> row(3, 1.5);
  EXPECT_EQ(compiled.predict_one(row), 0.0);
  EXPECT_EQ(compiled.predict_one(std::span<const double>{}), 0.0);
}

TEST(CompiledGbrEdge, SingleLeafTreesFoldToConstant) {
  // min_samples_leaf so large no split is legal: every tree is one leaf
  // and the compiled model must reproduce f0 + sum(lr * leaf) exactly.
  Matrix x;
  std::vector<double> y;
  make_design(50, 3, 43, x, y);
  GbrParams params;
  params.n_trees = 5;
  params.tree.min_samples_leaf = 1000;
  GradientBoostedRegressor gbr(params);
  gbr.fit(x, y);
  const CompiledGbr compiled = gbr.compile();
  EXPECT_EQ(compiled.node_count(), 5u);  // one leaf per tree
  EXPECT_EQ(compiled.max_feature(), -1);
  EXPECT_EQ(compiled.predict_one(x.row(0)), gbr.predict_one(x.row(0)));
  EXPECT_EQ(compiled.predict_one(x.row(1)), gbr.predict_one(x.row(1)));
}

TEST(CompiledGbrEdge, DegenerateConstantFeaturesMatchReference) {
  // Constant columns bin to a single code (no edges); splits can only
  // use the informative column and the compiled walk must follow.
  Rng rng(44);
  Matrix x(300, 3);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x(i, 0) = 2.5;  // constant
    x(i, 1) = rng.normal();
    x(i, 2) = -1.0;  // constant
    y[i] = x(i, 1) > 0.0 ? 1.0 : -1.0;
  }
  GradientBoostedRegressor gbr;
  gbr.fit(x, y);
  const CompiledGbr compiled = gbr.compile();
  EXPECT_EQ(compiled.max_feature(), 1);
  const BinnedDataset binned(x, gbr.params().tree.histogram_bins);
  for (std::size_t r = 0; r < 300; r += 7) {
    EXPECT_EQ(compiled.predict_one(x.row(r)), gbr.predict_one(x.row(r)));
    EXPECT_EQ(compiled.predict_binned(binned, r), gbr.predict_binned(binned, r));
  }
}

TEST_F(CompiledGbrTest, RejectsNarrowRows) {
  const CompiledGbr compiled = gbr_->compile();
  ASSERT_GE(compiled.max_feature(), 1);
  const std::vector<double> narrow(1, 0.0);
  EXPECT_THROW((void)compiled.predict_one(narrow), ContractError);
  EXPECT_THROW((void)compiled.predict_binned(*binned_, binned_->rows()), ContractError);
}

// ---------------------------------------------------------------------------
// CompiledAttention.
// ---------------------------------------------------------------------------

class CompiledAttentionTest : public ::testing::Test {
 protected:
  static constexpr int kM = 4;
  static constexpr int kF = 3;

  void SetUp() override {
    Rng rng(45);
    x_ = Matrix(120, std::size_t(kM) * std::size_t(kF));
    y_.resize(120);
    for (std::size_t i = 0; i < 120; ++i) {
      for (std::size_t c = 0; c < x_.cols(); ++c) x_(i, c) = rng.normal();
      y_[i] = 0.5 * x_(i, 2) + rng.normal() * 0.1;
    }
    AttentionParams params;
    params.epochs = 3;
    model_ = std::make_unique<AttentionForecaster>(kM, kF, params);
    model_->fit(x_, y_);
  }

  Matrix x_;
  std::vector<double> y_;
  std::unique_ptr<AttentionForecaster> model_;
};

/// The reference forward over every row of `x`, as one batch.
std::vector<double> reference_predict(const AttentionForecaster& model, const Matrix& x) {
  const auto ptrs = row_pointers(x);
  return model.predict_reference(RowBatch{ptrs, 1, x.cols(), x.cols()});
}

TEST_F(CompiledAttentionTest, PredictOneBitIdentical) {
  const CompiledAttention compiled = model_->compile();
  EXPECT_EQ(compiled.history(), kM);
  EXPECT_EQ(compiled.feat_dim(), kF);
  const std::vector<double> want = reference_predict(*model_, x_);
  CompiledAttention::Scratch ws;
  for (std::size_t r = 0; r < x_.rows(); ++r) {
    EXPECT_EQ(compiled.predict_one(x_.row(r)), want[r]);      // fresh scratch
    EXPECT_EQ(compiled.predict_one(x_.row(r), ws), want[r]);  // reused scratch
  }
}

TEST_F(CompiledAttentionTest, PredictManyBitIdenticalAcrossThreadCounts) {
  const CompiledAttention compiled = model_->compile();
  const std::vector<double> want = reference_predict(*model_, x_);
  const auto ptrs = row_pointers(x_);
  const RowBatch rb{ptrs, 1, x_.cols(), x_.cols()};
  for_thread_counts([&](int threads) {
    const std::vector<double> got = compiled.predict_many(rb);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "row " << i << " at " << threads << " threads";
  });
}

TEST_F(CompiledAttentionTest, StridedRowBatchMatchesContiguous) {
  // Feed the same windows as strided views into a wider table (the
  // forecast layer's layout: stride = full feature count, width = the
  // selected subset), and require bit-equality with the contiguous rows.
  const CompiledAttention compiled = model_->compile();
  const std::size_t wide = std::size_t(kF) + 2;
  const std::size_t n = 40;
  // Table of n windows, each kM steps of `wide` features; the first kF
  // of each step are the model's features, copied from x_.
  std::vector<double> table(n * std::size_t(kM) * wide, -99.0);
  std::vector<const double*> base(n);
  for (std::size_t r = 0; r < n; ++r) {
    base[r] = table.data() + r * std::size_t(kM) * wide;
    for (int g = 0; g < kM; ++g)
      for (int c = 0; c < kF; ++c)
        table[r * std::size_t(kM) * wide + std::size_t(g) * wide + std::size_t(c)] =
            x_(r, std::size_t(g) * std::size_t(kF) + std::size_t(c));
  }
  const RowBatch strided{base, std::size_t(kM), std::size_t(kF), wide};
  const std::vector<double> got = compiled.predict_many(strided);
  CompiledAttention::Scratch ws;
  for (std::size_t r = 0; r < n; ++r)
    EXPECT_EQ(got[r], compiled.predict_one(x_.row(r), ws)) << "strided row " << r;
}

TEST_F(CompiledAttentionTest, OneScratchServesModelsOfDifferentShapes) {
  // A serving session keeps one Scratch for every model it answers with.
  // A wider but shorter model sizes it first; the fixture's longer model
  // must still get buffers that fit its history (one score per step).
  constexpr int kWideM = 2;
  constexpr int kWideF = 12;
  Rng rng(46);
  Matrix xw(60, std::size_t(kWideM) * std::size_t(kWideF));
  std::vector<double> yw(60);
  for (std::size_t i = 0; i < xw.rows(); ++i) {
    for (std::size_t c = 0; c < xw.cols(); ++c) xw(i, c) = rng.normal();
    yw[i] = 0.3 * xw(i, 5) + rng.normal() * 0.1;
  }
  AttentionParams params;
  params.epochs = 2;
  AttentionForecaster wide(kWideM, kWideF, params);
  wide.fit(xw, yw);
  const CompiledAttention wide_compiled = wide.compile();
  const CompiledAttention long_compiled = model_->compile();
  const std::vector<double> wide_want = reference_predict(wide, xw);
  const std::vector<double> long_want = reference_predict(*model_, x_);
  CompiledAttention::Scratch ws;
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_EQ(wide_compiled.predict_one(xw.row(r), ws), wide_want[r]);
    EXPECT_EQ(long_compiled.predict_one(x_.row(r), ws), long_want[r]);
    EXPECT_GE(ws.scores.size(), std::size_t(kM));
  }
}

TEST_F(CompiledAttentionTest, PredictMatchesReference) {
  // The model's own predict entry points run the compiled forward; the
  // per-call packing in predict_reference is the oracle.
  const std::vector<double> want = reference_predict(*model_, x_);
  const std::vector<double> got = model_->predict(x_);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]);
    EXPECT_EQ(model_->predict_one(x_.row(i)), want[i]);
  }
}

TEST_F(CompiledAttentionTest, RejectsWrongWindowLength) {
  const CompiledAttention compiled = model_->compile();
  const std::vector<double> short_window(std::size_t(kM) * std::size_t(kF) - 1, 0.0);
  EXPECT_THROW((void)compiled.predict_one(short_window), ContractError);
}

TEST(CompiledAttentionEdge, RefusesUnfittedModel) {
  // No fit -> no scaler statistics; compiling must fail loudly instead
  // of producing NaNs at serve time.
  const AttentionForecaster model(3, 2);
  EXPECT_THROW((void)model.compile(), ContractError);
}

}  // namespace
}  // namespace dfv::ml
