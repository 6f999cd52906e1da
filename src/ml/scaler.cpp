#include "ml/scaler.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace dfv::ml {

void StandardScaler::fit(const Matrix& x) {
  DFV_CHECK(x.rows() == 0 || x.cols() > 0);
  const std::size_t C = x.cols(), R = x.rows();
  mean_.assign(C, 0.0);
  std_.assign(C, 1.0);
  if (R == 0) return;
  for (std::size_t r = 0; r < R; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < C; ++c) mean_[c] += row[c];
  }
  for (double& m : mean_) m /= double(R);
  std::vector<double> var(C, 0.0);
  for (std::size_t r = 0; r < R; ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < C; ++c) {
      const double d = row[c] - mean_[c];
      var[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < C; ++c)
    std_[c] = var[c] > 0.0 ? std::sqrt(var[c] / double(R)) : 1.0;
}

void StandardScaler::fit(const RowBatch& x) {
  DFV_CHECK(x.size() == 0 || x.row_len() > 0);
  const std::size_t C = x.row_len(), R = x.size();
  mean_.assign(C, 0.0);
  std_.assign(C, 1.0);
  if (R == 0) return;
  std::vector<double> row(C);
  for (std::size_t r = 0; r < R; ++r) {
    x.gather(r, row.data());
    for (std::size_t c = 0; c < C; ++c) mean_[c] += row[c];
  }
  for (double& m : mean_) m /= double(R);
  std::vector<double> var(C, 0.0);
  for (std::size_t r = 0; r < R; ++r) {
    x.gather(r, row.data());
    for (std::size_t c = 0; c < C; ++c) {
      const double d = row[c] - mean_[c];
      var[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < C; ++c)
    std_[c] = var[c] > 0.0 ? std::sqrt(var[c] / double(R)) : 1.0;
}

void StandardScaler::transform(Matrix& x) const {
  DFV_CHECK(x.cols() == mean_.size());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    transform_row(row, row.data());
  }
}

void StandardScaler::transform_row(std::span<const double> row, double* out) const {
  DFV_CHECK(row.size() == mean_.size());
  standardize_groups(row.data(), 1, row.size(), row.size(), mean_.data(), std_.data(), out);
}

void StandardScaler::transform_row(const RowBatch& x, std::size_t r, double* out) const {
  DFV_CHECK(x.row_len() == mean_.size() && r < x.size());
  standardize_groups(x.base[r], x.groups, x.width, x.stride, mean_.data(), std_.data(), out);
}

Matrix StandardScaler::fit_transform(Matrix x) {
  DFV_CHECK(x.rows() == 0 || x.cols() > 0);
  fit(x);
  transform(x);
  return x;
}

void StandardScaler::fit_target(std::span<const double> y) {
  DFV_CHECK(!y.empty());
  y_mean_ = stats::mean(y);
  const double s = stats::stddev(y);
  y_std_ = s > 0.0 ? s : 1.0;
}

double StandardScaler::transform_target(double y) const { return (y - y_mean_) / y_std_; }

double StandardScaler::inverse_target(double z) const { return z * y_std_ + y_mean_; }

void StandardScaler::restore(std::vector<double> means, std::vector<double> stddevs,
                             double y_mean, double y_std) {
  DFV_CHECK_MSG(means.size() == stddevs.size(),
                "scaler: " << means.size() << " means but " << stddevs.size() << " stddevs");
  mean_ = std::move(means);
  std_ = std::move(stddevs);
  y_mean_ = y_mean;
  y_std_ = y_std;
}

}  // namespace dfv::ml
