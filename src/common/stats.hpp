// Descriptive statistics and correlation utilities shared by the
// simulator, the ML library, and the analysis pipeline.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dfv::stats {

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  ///< sample variance, 0 if n < 2
[[nodiscard]] double stddev(std::span<const double> xs);
[[nodiscard]] double min(std::span<const double> xs);
[[nodiscard]] double max(std::span<const double> xs);
[[nodiscard]] double sum(std::span<const double> xs);

/// Linear-interpolated percentile; q in [0, 1]. Sorts a copy.
[[nodiscard]] double percentile(std::span<const double> xs, double q);
[[nodiscard]] double median(std::span<const double> xs);

[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Pearson correlation coefficient; 0 when either side is constant.
[[nodiscard]] double pearson(std::span<const double> xs, std::span<const double> ys);

/// Spearman rank correlation (average ranks for ties).
[[nodiscard]] double spearman(std::span<const double> xs, std::span<const double> ys);

/// Ranks with ties averaged, 1-based (as used by Spearman).
[[nodiscard]] std::vector<double> ranks(std::span<const double> xs);

/// Welford-style streaming moments.
class Online {
 public:
  void add(double x) noexcept;
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Equal-width histogram over [lo, hi] with `bins` buckets; values outside
/// the range are clamped into the boundary buckets.
[[nodiscard]] std::vector<std::size_t> histogram(std::span<const double> xs, double lo, double hi,
                                   std::size_t bins);

}  // namespace dfv::stats
