// Standardization (zero mean, unit variance per column): all the models
// in the analysis pipeline train on standardized features.
#pragma once

#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace dfv::ml {

class StandardScaler {
 public:
  void fit(const Matrix& x);
  /// Same statistics over a strided-view batch (identical summation
  /// order, so a RowBatch over a Matrix's rows gives bit-equal results).
  void fit(const RowBatch& x);
  /// Transform in place; constant columns map to zero.
  void transform(Matrix& x) const;
  /// Standardize one row into out[0 .. row.size()): out[c] =
  /// (row[c] - mean[c]) / std[c]. `out` may alias `row`.
  void transform_row(std::span<const double> row, double* out) const;
  /// Same for logical row `r` of a strided batch, read straight from the
  /// views (no gathered copy): the values equal gather-then-transform.
  void transform_row(const RowBatch& x, std::size_t r, double* out) const;
  [[nodiscard]] Matrix fit_transform(Matrix x);

  [[nodiscard]] const std::vector<double>& means() const noexcept { return mean_; }
  [[nodiscard]] const std::vector<double>& stddevs() const noexcept { return std_; }

  /// Scalar target helpers (fit on a target vector).
  void fit_target(std::span<const double> y);
  [[nodiscard]] double transform_target(double y) const;
  [[nodiscard]] double inverse_target(double z) const;
  [[nodiscard]] double target_mean() const noexcept { return y_mean_; }
  [[nodiscard]] double target_stddev() const noexcept { return y_std_; }

  /// Set fitted statistics directly (a saved model's scaler): afterwards
  /// the scaler transforms exactly as the one that produced them.
  void restore(std::vector<double> means, std::vector<double> stddevs, double y_mean,
               double y_std);

 private:
  std::vector<double> mean_, std_;
  double y_mean_ = 0.0, y_std_ = 1.0;
};

}  // namespace dfv::ml
