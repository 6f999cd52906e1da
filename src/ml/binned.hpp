// Bin-once training substrate for the GBR stack: quantile bin edges and
// feature-major uint8 bin codes computed a single time per training
// matrix, then shared by every tree of a boosted fit (row-index views)
// and by every RFE stage/fold (feature masks). This removes the
// per-tree O(n·F·log bins) rebinning and the per-stage O(n·F)
// `select_cols` copies that used to dominate `rfe_cv`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace dfv::ml {

/// Which columns of a BinnedDataset a fit may split on. Trees fitted
/// under a mask keep reporting splits/gains in the *global* feature
/// index space, so masked models predict straight from full-width rows
/// and no column-subset matrix ever needs to be materialized.
struct FeatureMask {
  std::vector<std::uint8_t> active;  ///< size = features, nonzero = usable

  [[nodiscard]] static FeatureMask all(std::size_t features) {
    FeatureMask m;
    m.active.assign(features, 1);
    return m;
  }
  [[nodiscard]] static FeatureMask of(std::size_t features,
                                      std::span<const std::size_t> keep) {
    FeatureMask m;
    m.active.assign(features, 0);
    for (std::size_t f : keep) m.active[f] = 1;
    return m;
  }

  [[nodiscard]] bool test(std::size_t f) const noexcept { return active[f] != 0; }
  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t c = 0;
    for (std::uint8_t a : active) c += a != 0;
    return c;
  }
};

/// Quantile-binned view of a matrix: per-feature ascending edges plus a
/// feature-major code table (`codes[f * rows + r]` = number of edges of
/// feature f strictly below x(r, f)). Built once; read-only afterwards,
/// so any number of concurrent fits may share one instance. Keeps a
/// pointer to the source matrix, which must outlive the view.
class BinnedDataset {
 public:
  BinnedDataset() = default;
  /// Bin every row of `x` into at most `bins` quantile bins per feature
  /// (edges from a stride-subsampled quantile sketch, exactly the scheme
  /// the per-tree binner used). bins must be in [2, 256].
  BinnedDataset(const Matrix& x, int bins);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t features() const noexcept { return features_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0; }
  /// The backing matrix; contract-checked (a default-constructed view has
  /// none).
  [[nodiscard]] const Matrix& source() const;

  /// Ascending split-candidate values for feature f (size < bins).
  [[nodiscard]] const std::vector<double>& edges(std::size_t f) const {
    return edges_[f];
  }
  [[nodiscard]] std::uint8_t code(std::size_t r, std::size_t f) const {
    return codes_[f * rows_ + r];
  }
  /// All rows' codes for one feature (the layout node scans iterate).
  [[nodiscard]] std::span<const std::uint8_t> feature_codes(std::size_t f) const {
    return {codes_.data() + f * rows_, rows_};
  }

 private:
  const Matrix* x_ = nullptr;
  std::size_t rows_ = 0, features_ = 0;
  std::vector<std::vector<double>> edges_;  ///< per feature, ascending
  std::vector<std::uint8_t> codes_;         ///< feature-major [f * rows + r]
};

}  // namespace dfv::ml
