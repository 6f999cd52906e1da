// Gradient boosted regression (Friedman 2001): squared-error boosting of
// histogram CART trees with row subsampling — the predictive model used
// for the paper's deviation analysis (§IV-B).
//
// Training runs on a BinnedDataset built once per training matrix: all
// trees share the same bin edges and uint8 codes through row-index
// views, and masked fits (RFE stages) share them too — no per-tree
// rebinning and no column-subset matrix copies anywhere.
#pragma once


#include "ml/binned.hpp"
#include "ml/tree.hpp"

namespace dfv::ml {

class CompiledGbr;

struct GbrParams {
  int n_trees = 60;
  double learning_rate = 0.10;
  double subsample = 0.40;  ///< fraction of rows per tree
  TreeParams tree;
  std::uint64_t seed = 0x6b05;
};

class GradientBoostedRegressor {
 public:
  explicit GradientBoostedRegressor(GbrParams params = {}) : params_(params) {}

  /// Convenience path: bins `x` once (all rows, all features) and
  /// delegates to the shared-view overload.
  void fit(const Matrix& x, std::span<const double> y);

  /// Fast path: boost over rows `rows` of a prebuilt binned view with
  /// the feature mask `mask`. `y` is indexed by absolute matrix row
  /// (y.size() == data.rows()). Masked-out features never split; the
  /// fitted model predicts from full-width rows (or binned codes).
  void fit(const BinnedDataset& data, std::span<const double> y,
           std::span<const std::size_t> rows, const FeatureMask& mask);

  /// All-rows variant: identical to passing the identity row list, but
  /// never materializes it — subsampled picks are already row ids. For
  /// large fits this trims O(rows) from peak RSS.
  void fit(const BinnedDataset& data, std::span<const double> y,
           const FeatureMask& mask);

  [[nodiscard]] double predict_one(std::span<const double> x) const;
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;
  /// Predict row `r` of the binned view the model was trained on
  /// (uint8 code traversal; bit-identical to predict_one on the row).
  [[nodiscard]] double predict_binned(const BinnedDataset& data, std::size_t r) const;
  [[nodiscard]] std::vector<double> predict_rows(const BinnedDataset& data,
                                                 std::span<const std::size_t> rows) const;

  /// Split-gain importances summed over trees, normalized to sum to 1
  /// (all-zero if the model never split). Indexed by *global* feature;
  /// masked-out features report 0.
  [[nodiscard]] std::vector<double> feature_importances() const;

  [[nodiscard]] const GbrParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }

  /// Snapshot the fitted ensemble into the flattened inference layout
  /// (see ml/compiled.hpp); predictions are bit-identical to the per-row
  /// predict_one/predict_binned walks. The batch predict paths always
  /// take this route.
  [[nodiscard]] CompiledGbr compile() const;

 private:
  friend class CompiledGbr;

  /// Shared boosting loop; an empty `rows` means the identity row list
  /// (every row of `data`, in order) without materializing it.
  void fit_impl(const BinnedDataset& data, std::span<const double> y,
                std::span<const std::size_t> rows, const FeatureMask& mask);

  GbrParams params_;
  double f0_ = 0.0;
  std::vector<RegressionTree> trees_;
  std::vector<double> gain_acc_;
};

}  // namespace dfv::ml
