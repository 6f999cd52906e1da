#include "ml/gbr.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exec/exec.hpp"
#include "ml/compiled.hpp"

namespace dfv::ml {

namespace {

// At -O3, GCC's -fsplit-paths duplicates the join after the child-select
// ternary, which replaces the cmov with data-dependent branches and makes
// interleaved tree traversal ~3x slower (bin codes are effectively random,
// so the branches mispredict constantly). Pin the kernel to branchless
// codegen; this is pure instruction selection, never a numeric change.
#if defined(__GNUC__) && !defined(__clang__)
#define DFV_ML_TRAVERSAL __attribute__((optimize("no-split-paths")))
#else
#define DFV_ML_TRAVERSAL
#endif

/// Advance a block of rows through one fitted tree in lock step and
/// accumulate `scale` x leaf value into f[rows[j]]. The per-row
/// dependent-load chains are independent, so interleaving them hides
/// node/code load latency (~1.6x over per-row predict_binned here).
/// Bit-identical to the per-row path: same leaf per row, same add.
/// `rows == nullptr` means the identity mapping (row j is matrix row j);
/// the branch is loop-invariant, so it predicts perfectly.
DFV_ML_TRAVERSAL
void add_scaled_leaves(const RegressionTree& tree, const BinnedDataset& data,
                       const std::size_t* rows, std::size_t lo, std::size_t hi,
                       double scale, double* f) {
  const auto nodes = tree.nodes();
  const int depth = tree.fitted_depth();
  const std::uint8_t* codes = data.feature_codes(0).data();
  const std::size_t R = data.rows();
  constexpr std::size_t kBlock = 16;
  std::int32_t cur[kBlock];
  std::size_t row[kBlock];
  for (std::size_t j0 = lo; j0 < hi; j0 += kBlock) {
    const std::size_t cnt = std::min(kBlock, hi - j0);
    for (std::size_t i = 0; i < cnt; ++i) {
      cur[i] = 0;
      row[i] = rows ? rows[j0 + i] : j0 + i;
    }
    for (int d = 0; d < depth; ++d)
      for (std::size_t i = 0; i < cnt; ++i) {
        const auto& nd = nodes[std::size_t(cur[i])];
        const std::size_t c = std::size_t(nd.feature >= 0 ? nd.feature : 0);
        cur[i] = codes[c * R + row[i]] <= nd.bin ? nd.left : nd.right;
      }
    for (std::size_t i = 0; i < cnt; ++i)
      f[row[i]] += scale * nodes[std::size_t(cur[i])].value;
  }
}

}  // namespace

void GradientBoostedRegressor::fit(const Matrix& x, std::span<const double> y) {
  DFV_CHECK(x.rows() == y.size());
  DFV_CHECK(x.rows() > 0);
  const BinnedDataset data(x, params_.tree.histogram_bins);
  const FeatureMask mask = FeatureMask::all(x.cols());
  fit_impl(data, y, {}, mask);
}

void GradientBoostedRegressor::fit(const BinnedDataset& data, std::span<const double> y,
                                   std::span<const std::size_t> rows,
                                   const FeatureMask& mask) {
  DFV_CHECK(!rows.empty());
  fit_impl(data, y, rows, mask);
}

void GradientBoostedRegressor::fit(const BinnedDataset& data, std::span<const double> y,
                                   const FeatureMask& mask) {
  fit_impl(data, y, {}, mask);
}

void GradientBoostedRegressor::fit_impl(const BinnedDataset& data,
                                        std::span<const double> y,
                                        std::span<const std::size_t> rows,
                                        const FeatureMask& mask) {
  DFV_CHECK(data.rows() == y.size());
  DFV_CHECK(data.rows() > 0);
  DFV_CHECK(params_.n_trees >= 1);
  DFV_CHECK(params_.subsample > 0.0 && params_.subsample <= 1.0);

  trees_.clear();
  gain_acc_.assign(data.features(), 0.0);

  // Empty `rows` is the identity row list, kept implicit: at a million
  // rows the materialized index array alone is 8 MB of peak RSS.
  const bool identity = rows.empty();
  const std::size_t n = identity ? data.rows() : rows.size();
  double y_sum = 0.0;
  if (identity)
    for (std::size_t r = 0; r < n; ++r) y_sum += y[r];
  else
    for (std::size_t r : rows) y_sum += y[r];
  f0_ = y_sum / double(n);

  // The boosted prediction is keyed by absolute matrix row; only entries
  // named in `rows` are ever touched. There is no residual array: each
  // tree fits against `y` with `f` as the baseline, so the negative
  // gradient y[r] - f[r] is formed inside the tree's node gather —
  // bit-identical to precomputing it, without a second 8-bytes/row
  // buffer at peak.
  std::vector<double> f(data.rows(), 0.0);
  if (identity)
    for (std::size_t r = 0; r < n; ++r) f[r] = f0_;
  else
    for (std::size_t r : rows) f[r] = f0_;
  Rng rng(params_.seed);

  const auto sub_n =
      std::max<std::size_t>(2, std::size_t(params_.subsample * double(n)));
  std::vector<std::size_t> sub_rows;       // per-tree subsample picks
  std::vector<std::size_t> identity_rows;  // only if identity + no subsample

  for (int t = 0; t < params_.n_trees; ++t) {
    std::span<const std::size_t> idx = rows;
    if (sub_n < n) {
      // The picks are indices into `rows`; under identity they already
      // ARE the matrix rows, so the remap (in place — each slot is read
      // before it is written) vanishes and no second buffer exists.
      // Last tree's picks are dead here; free them before the sampler
      // allocates so the two never coexist at peak.
      sub_rows = std::vector<std::size_t>();
      sub_rows = rng.sample_without_replacement(n, sub_n);
      if (!identity)
        for (std::size_t k = 0; k < sub_n; ++k) sub_rows[k] = rows[sub_rows[k]];
      idx = sub_rows;
    } else if (identity) {
      // Full-row trees need a real index array for the tree fit; built
      // once and reused (only reached with subsample == 1.0).
      if (identity_rows.empty()) {
        identity_rows.resize(n);
        for (std::size_t r = 0; r < n; ++r) identity_rows[r] = r;
      }
      idx = identity_rows;
    }
    RegressionTree tree;
    // The interleaved update below never reads the fitted partition, so
    // skip recording it: the stored ensemble keeps only nodes + gains,
    // not O(rows) per tree.
    tree.record_fitted_leaves(false);
    tree.fit(data, y, f, idx, mask, params_.tree);

    // Boosted-prediction update: every row walks the tree on uint8
    // codes via the interleaved fixed-depth traversal. That beats the
    // old stamp-and-skip scheme (its per-row in-sample test mispredicted
    // constantly); in-sample rows land in exactly the leaf the partition
    // assigned them, so the update is bit-identical either way. Only the
    // next tree reads `f`, so the last tree skips the update.
    if (t + 1 < params_.n_trees)
      exec::parallel_for(0, n, 256, [&](std::size_t lo, std::size_t hi) {
        add_scaled_leaves(tree, data, identity ? nullptr : rows.data(), lo, hi,
                          params_.learning_rate, f.data());
      });
    for (std::size_t c = 0; c < data.features(); ++c)
      gain_acc_[c] += tree.feature_gains()[c];
    trees_.push_back(std::move(tree));
  }
}

double GradientBoostedRegressor::predict_one(std::span<const double> x) const {
  DFV_CHECK(params_.learning_rate > 0.0);
  double s = f0_;
  for (const auto& t : trees_) s += params_.learning_rate * t.predict_one(x);
  return s;
}

std::vector<double> GradientBoostedRegressor::predict(const Matrix& x) const {
  DFV_CHECK(params_.learning_rate > 0.0);
  // Flatten-then-predict is bit-identical to predict_one per row and pays
  // for the one-pass compile after a few dozen rows.
  return compile().predict(x);
}

double GradientBoostedRegressor::predict_binned(const BinnedDataset& data,
                                                std::size_t r) const {
  DFV_CHECK(r < data.rows());
  double s = f0_;
  for (const auto& t : trees_) s += params_.learning_rate * t.predict_binned(data, r);
  return s;
}

std::vector<double> GradientBoostedRegressor::predict_rows(
    const BinnedDataset& data, std::span<const std::size_t> rows) const {
  DFV_CHECK(params_.learning_rate > 0.0);
  return compile().predict_many(data, rows);
}

std::vector<double> GradientBoostedRegressor::feature_importances() const {
  std::vector<double> imp = gain_acc_;
  const double total = stats::sum(imp);
  if (total > 0.0)
    for (double& v : imp) v /= total;
  return imp;
}

}  // namespace dfv::ml
