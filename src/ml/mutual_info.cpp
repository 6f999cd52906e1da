#include "ml/mutual_info.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/check.hpp"

namespace dfv::ml {

double mutual_information(std::span<const int> xs, std::span<const int> ys) {
  DFV_CHECK(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n == 0) return 0.0;

  std::map<int, double> px, py;
  std::map<std::pair<int, int>, double> pxy;
  const double w = 1.0 / double(n);
  for (std::size_t i = 0; i < n; ++i) {
    px[xs[i]] += w;
    py[ys[i]] += w;
    pxy[{xs[i], ys[i]}] += w;
  }
  // A variable with one value carries no information. Its summed
  // probability can miss 1 by an ulp, which would leave a ~1e-16 score.
  if (px.size() == 1 || py.size() == 1) return 0.0;

  double mi = 0.0;
  for (const auto& [key, p] : pxy) {
    if (p <= 0.0) continue;
    mi += p * std::log(p / (px[key.first] * py[key.second]));
  }
  return std::max(0.0, mi);
}

double mutual_information_binary(std::span<const double> xs, std::span<const double> ys) {
  DFV_CHECK(xs.size() == ys.size());
  std::vector<int> xi(xs.size()), yi(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xi[i] = xs[i] != 0.0 ? 1 : 0;
    yi[i] = ys[i] != 0.0 ? 1 : 0;
  }
  return mutual_information(xi, yi);
}

// dfv-lint: allow(contract): total over all n; n = 0 yields the lone acc[0] = 0
std::vector<double> count_probabilities(std::size_t n) {
  std::vector<double> acc(n + 1, 0.0);
  const double w = n > 0 ? 1.0 / double(n) : 0.0;
  for (std::size_t c = 1; c <= n; ++c) acc[c] = acc[c - 1] + w;
  return acc;
}

double mutual_information(const Counts2x2& joint, std::span<const double> acc) {
  const std::size_t cx[2] = {joint[0][0] + joint[0][1], joint[1][0] + joint[1][1]};
  const std::size_t cy[2] = {joint[0][0] + joint[1][0], joint[0][1] + joint[1][1]};
  DFV_CHECK_MSG(acc.size() == cx[0] + cx[1] + 1,
                "count probabilities must cover every count up to the sample size");
  // One-valued variable: exactly 0, as in the column form.
  if (cx[0] == 0 || cx[1] == 0 || cy[0] == 0 || cy[1] == 0) return 0.0;
  double mi = 0.0;
  for (std::size_t x = 0; x < 2; ++x)
    for (std::size_t y = 0; y < 2; ++y) {
      const std::size_t c = joint[x][y];
      if (c == 0) continue;  // a label pair never seen has no entry to sum
      const double p = acc[c];
      mi += p * std::log(p / (acc[cx[x]] * acc[cy[y]]));
    }
  return std::max(0.0, mi);
}

// dfv-lint: allow(contract): total over all int sequences; empty input is defined as zero entropy
double entropy(std::span<const int> xs) {
  if (xs.empty()) return 0.0;
  std::map<int, double> p;
  const double w = 1.0 / double(xs.size());
  for (int x : xs) p[x] += w;
  double h = 0.0;
  for (const auto& [_, v] : p)
    if (v > 0.0) h -= v * std::log(v);
  return h;
}

}  // namespace dfv::ml
