#include "ml/rfe.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "exec/exec.hpp"
#include "ml/kfold.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"

namespace dfv::ml {

namespace {

/// MAPE of predictions against targets, both shifted by the per-sample
/// offset (empty offset = zeros).
double offset_mape(std::span<const double> y, std::span<const double> pred,
                   std::span<const double> offset, std::span<const std::size_t> idx) {
  std::vector<double> t, p;
  t.reserve(idx.size());
  p.reserve(idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const double off = offset.empty() ? 0.0 : offset[idx[k]];
    t.push_back(y[idx[k]] + off);
    p.push_back(pred[k] + off);
  }
  return mape(t, p);
}

}  // namespace

RfeResult rfe_cv(const Matrix& x, std::span<const double> y, const RfeParams& params,
                 std::span<const double> offset, std::span<const std::size_t> groups) {
  DFV_CHECK(x.cols() >= 2);
  const BinnedDataset binned(x, params.gbr.tree.histogram_bins);
  return rfe_cv(binned, y, params, offset, groups);
}

RfeResult rfe_cv(const BinnedDataset& binned, std::span<const double> y,
                 const RfeParams& params, std::span<const double> offset,
                 std::span<const std::size_t> groups) {
  DFV_CHECK(binned.rows() == y.size());
  DFV_CHECK(offset.empty() || offset.size() == y.size());
  const std::size_t F = binned.features();
  DFV_CHECK(F >= 2);

  RfeResult result;
  result.relevance.assign(F, 0.0);
  result.survival.assign(F, 0.0);

  Rng rng(params.seed);
  const auto folds = groups.empty()
                         ? kfold(binned.rows(), std::size_t(params.folds), rng)
                         : group_kfold(groups, std::size_t(params.folds), rng);

  // Folds are independent given per-fold seeds, so they run as parallel
  // tasks writing fold-private partials; partials combine serially in fold
  // order below. Each stage's model is seeded from (fold, stage) rather
  // than a shared counter so results do not depend on scheduling. Every
  // GBR trains on (binned view, row view, feature mask) — the only matrix
  // copy per fold is the ridge baseline's train rows.
  struct FoldPartial {
    double mape_full = 0.0;
    double mape_linear = 0.0;
    std::vector<double> relevance;
    std::vector<double> survival;
  };
  std::vector<FoldPartial> parts(folds.size());

  run_folds(folds.size(), [&](std::size_t fold_i) {
    const FoldSplit& fold = folds[fold_i];
    FoldPartial& part = parts[fold_i];
    part.relevance.assign(F, 0.0);
    part.survival.assign(F, 0.0);
    const std::uint64_t fold_seed = hash_combine(params.gbr.seed, fold_i);

    // Full-feature reference models (GBR + linear baseline).
    {
      GbrParams gp = params.gbr;
      gp.seed = exec::substream_seed(fold_seed, 0);
      GradientBoostedRegressor full(gp);
      full.fit(binned, y, fold.train, FeatureMask::all(F));
      part.mape_full =
          offset_mape(y, full.predict_rows(binned, fold.test), offset, fold.test);

      const Matrix& x = binned.source();
      const Matrix x_train = x.select_rows(fold.train);
      std::vector<double> y_train(fold.train.size());
      for (std::size_t i = 0; i < fold.train.size(); ++i)
        y_train[i] = y[fold.train[i]];
      LinearRegression lin;
      lin.fit(x_train, y_train);
      std::vector<double> lin_pred(fold.test.size());
      for (std::size_t i = 0; i < fold.test.size(); ++i)
        lin_pred[i] = lin.predict_one(x.row(fold.test[i]));
      part.mape_linear = offset_mape(y, lin_pred, offset, fold.test);
    }

    // Recursive elimination: the active set shrinks by the least-important
    // feature each stage. A stage is just a narrower feature mask over the
    // shared binned view; record every stage's held-out error.
    std::vector<std::size_t> active(F);
    for (std::size_t f = 0; f < F; ++f) active[f] = f;
    FeatureMask mask = FeatureMask::all(F);
    std::vector<std::size_t> elimination_order;  // first = dropped first
    std::vector<std::pair<double, std::vector<std::size_t>>> stages;  // err, subset

    std::uint64_t stage_i = 1;
    while (active.size() >= 2) {
      GbrParams gp = params.gbr;
      gp.seed = exec::substream_seed(fold_seed, stage_i++);
      GradientBoostedRegressor model(gp);
      model.fit(binned, y, fold.train, mask);

      stages.emplace_back(
          offset_mape(y, model.predict_rows(binned, fold.test), offset, fold.test),
          active);

      // Importances are global-indexed; pick the worst *active* feature
      // (strict `<`, so the earliest feature wins ties, exactly the old
      // column-local rule).
      const std::vector<double> imp = model.feature_importances();
      std::size_t worst = 0;
      for (std::size_t i = 1; i < active.size(); ++i)
        if (imp[active[i]] < imp[active[worst]]) worst = i;
      elimination_order.push_back(active[worst]);
      mask.active[active[worst]] = 0;
      active.erase(active.begin() + std::ptrdiff_t(worst));
    }
    elimination_order.push_back(active.front());  // the survivor

    // "Well-performing subset": the *smallest* stage whose error is within
    // 5% of the fold's best — parsimony keeps uninformative features from
    // free-riding in the full-feature stage.
    double best_err = std::numeric_limits<double>::infinity();
    for (const auto& [err, subset] : stages) best_err = std::min(best_err, err);
    const std::vector<std::size_t>* best_subset = &stages.front().second;
    for (const auto& [err, subset] : stages)
      if (err <= best_err * 1.05 && subset.size() <= best_subset->size())
        best_subset = &subset;

    for (std::size_t f : *best_subset) part.relevance[f] += 1.0;
    for (std::size_t pos = 0; pos < elimination_order.size(); ++pos)
      part.survival[elimination_order[pos]] += double(pos) / double(F - 1);
  });

  const double inv_folds = 1.0 / double(folds.size());
  for (const FoldPartial& part : parts) {
    result.cv_mape_full += part.mape_full * inv_folds;
    result.cv_mape_linear += part.mape_linear * inv_folds;
    for (std::size_t f = 0; f < F; ++f) {
      result.relevance[f] += part.relevance[f] * inv_folds;
      result.survival[f] += part.survival[f] * inv_folds;
    }
  }
  return result;
}

}  // namespace dfv::ml
