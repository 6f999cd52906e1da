#include "ml/binned.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "exec/exec.hpp"

namespace dfv::ml {

const Matrix& BinnedDataset::source() const {
  DFV_CHECK_MSG(x_ != nullptr, "BinnedDataset: empty view has no source matrix");
  return *x_;
}

BinnedDataset::BinnedDataset(const Matrix& x, int bins)
    : x_(&x), rows_(x.rows()), features_(x.cols()) {
  DFV_CHECK(rows_ > 0);
  DFV_CHECK(bins >= 2 && bins <= 256);
  edges_.assign(features_, {});
  codes_.assign(rows_ * features_, 0);

  // Features are independent: each task computes one feature's quantile
  // edges and writes that feature's disjoint code slab, so the parallel
  // build is trivially bit-identical to the serial one.
  const std::size_t stride = std::max<std::size_t>(1, rows_ / 4096);
  exec::parallel_for(0, features_, 1, [&](std::size_t f_lo, std::size_t f_hi) {
    std::vector<double> vals;
    for (std::size_t f = f_lo; f < f_hi; ++f) {
      vals.clear();
      for (std::size_t r = 0; r < rows_; r += stride) vals.push_back((*x_)(r, f));
      std::sort(vals.begin(), vals.end());
      auto& edges = edges_[f];
      for (std::size_t b = 1; b < std::size_t(bins); ++b) {
        const double q = double(b) / double(bins);
        const double v =
            vals[std::min(vals.size() - 1, std::size_t(q * double(vals.size())))];
        if (edges.empty() || v > edges.back()) edges.push_back(v);
      }
      std::uint8_t* codes = codes_.data() + f * rows_;
      for (std::size_t r = 0; r < rows_; ++r) {
        const auto it =
            std::lower_bound(edges.begin(), edges.end(), (*x_)(r, f));
        codes[r] = std::uint8_t(it - edges.begin());
      }
    }
  });
}

}  // namespace dfv::ml
