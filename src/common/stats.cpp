#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace dfv::stats {

double sum(std::span<const double> xs) {
  // Kahan summation: campaign aggregations add millions of small terms.
  double s = 0.0, c = 0.0;
  for (double x : xs) {
    const double y = x - c;
    const double t = s + y;
    c = (t - s) - y;
    s = t;
  }
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return sum(xs) / double(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / double(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) return 0.0;
  DFV_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - double(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::span<const double> xs) { return percentile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = min(xs);
  s.p25 = percentile(xs, 0.25);
  s.median = median(xs);
  s.p75 = percentile(xs, 0.75);
  s.max = max(xs);
  return s;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  DFV_CHECK(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = mean(xs), my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ranks(std::span<const double> xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> r(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg_rank = 0.5 * (double(i) + double(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) r[order[k]] = avg_rank;
    i = j + 1;
  }
  return r;
}

double spearman(std::span<const double> xs, std::span<const double> ys) {
  DFV_CHECK(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  const auto rx = ranks(xs);
  const auto ry = ranks(ys);
  return pearson(rx, ry);
}

void Online::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / double(n_);
  m2_ += delta * (x - mean_);
}

double Online::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / double(n_ - 1);
}

double Online::stddev() const noexcept { return std::sqrt(variance()); }

std::vector<std::size_t> histogram(std::span<const double> xs, double lo, double hi,
                                   std::size_t bins) {
  DFV_CHECK(bins > 0);
  DFV_CHECK(hi > lo);
  std::vector<std::size_t> h(bins, 0);
  const double w = (hi - lo) / double(bins);
  for (double x : xs) {
    auto b = static_cast<std::ptrdiff_t>((x - lo) / w);
    b = std::clamp<std::ptrdiff_t>(b, 0, std::ptrdiff_t(bins) - 1);
    ++h[std::size_t(b)];
  }
  return h;
}

}  // namespace dfv::stats
