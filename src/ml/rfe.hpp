// Recursive feature elimination with cross-validation (§IV-B): repeatedly
// fit GBR, drop the least-important feature, and rank features by when
// they were eliminated. The relevance score of a feature is the
// likelihood of it being part of the best-performing subset across the
// CV splits — exactly the quantity plotted in Fig. 9.
#pragma once

#include "ml/gbr.hpp"

namespace dfv::ml {

struct RfeParams {
  GbrParams gbr;
  int folds = 10;
  std::uint64_t seed = 0x4fe;
};

struct RfeResult {
  /// Per-feature likelihood (over folds) of belonging to the subset with
  /// the lowest held-out error — the Fig. 9 relevance score.
  std::vector<double> relevance;
  /// Per-feature mean normalized survival time (0 = always dropped first,
  /// 1 = always the last survivor); a smoother secondary ranking.
  std::vector<double> survival;
  /// Held-out MAPE of the full-feature GBR, averaged over folds, computed
  /// on offset + prediction vs. offset + target (see `offset` below).
  double cv_mape_full = 0.0;
  /// Same for the ridge linear-regression baseline (Groves et al.).
  double cv_mape_linear = 0.0;
};

/// Run RFE with k-fold CV.
///
/// `offset` (optional, same length as y): per-sample baseline added back
/// before computing MAPE. The deviation analysis predicts mean-centered
/// step times; MAPE is only meaningful on the reconstructed absolute
/// times (mean curve + deviation), so callers pass the mean curve here.
/// `groups` (optional): group ids for group-aware folds (e.g. run index,
/// so time steps of one run never straddle train/test).
///
/// Bins the matrix once and shares the BinnedDataset across every fold,
/// stage, and tree: folds are row-index views, stages are feature masks,
/// and no column- or row-subset matrix is ever materialized for the GBR
/// fits (the ridge baseline keeps one per-fold row copy for its solver).
[[nodiscard]] RfeResult rfe_cv(const Matrix& x, std::span<const double> y,
                               const RfeParams& params,
                               std::span<const double> offset = {},
                               std::span<const std::size_t> groups = {});

/// Same, over a caller-provided binned view (e.g. the deviation analysis
/// builds one binner for its sample matrix and hands it in).
[[nodiscard]] RfeResult rfe_cv(const BinnedDataset& binned, std::span<const double> y,
                               const RfeParams& params,
                               std::span<const double> offset = {},
                               std::span<const std::size_t> groups = {});

}  // namespace dfv::ml
