#include "analysis/forecast.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/window_cache.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "exec/exec.hpp"
#include "ml/kfold.hpp"
#include "ml/metrics.hpp"

namespace dfv::analysis {

const char* to_string(FeatureSet fs) noexcept {
  switch (fs) {
    case FeatureSet::App: return "app";
    case FeatureSet::AppPlacement: return "app+placement";
    case FeatureSet::AppPlacementIo: return "app+placement+io";
    case FeatureSet::AppPlacementIoSys: return "app+placement+io+sys";
  }
  return "?";
}

int feature_count(FeatureSet fs) noexcept {
  switch (fs) {
    case FeatureSet::App: return mon::kNumCounters;
    case FeatureSet::AppPlacement: return mon::kNumCounters + 2;
    case FeatureSet::AppPlacementIo: return mon::kNumCounters + 2 + mon::kNumIoFeatures;
    case FeatureSet::AppPlacementIoSys:
      return mon::kNumCounters + 2 + mon::kNumIoFeatures + mon::kNumSysFeatures;
  }
  return mon::kNumCounters;
}

std::vector<std::string> feature_names(FeatureSet fs) {
  DFV_CHECK(int(fs) >= int(FeatureSet::App) && int(fs) <= int(FeatureSet::AppPlacementIoSys));
  std::vector<std::string> names;
  for (int c = 0; c < mon::kNumCounters; ++c)
    names.emplace_back(mon::counter_name(mon::counter_from_index(c)));
  if (int(fs) >= int(FeatureSet::AppPlacement)) {
    names.emplace_back("NUM_ROUTERS");
    names.emplace_back("NUM_GROUPS");
  }
  if (int(fs) >= int(FeatureSet::AppPlacementIo))
    for (const char* n : mon::ldms_io_feature_names()) names.emplace_back(n);
  if (int(fs) >= int(FeatureSet::AppPlacementIoSys))
    for (const char* n : mon::ldms_sys_feature_names()) names.emplace_back(n);
  return names;
}

void step_features(const sim::RunRecord& run, int t, FeatureSet fs, std::span<double> out) {
  DFV_CHECK(out.size() == std::size_t(feature_count(fs)));
  std::size_t i = 0;
  // Job-router counters are normalized to per-router *rates*: AriesNCL
  // aggregates are per-step deltas summed over the job's routers, so raw
  // values confound congestion level with placement size and with the
  // step's own duration (longer steps integrate more background traffic).
  // Rates isolate the congestion level; placement size still enters via
  // NUM_ROUTERS / NUM_GROUPS.
  const double inv = 1.0 / (double(std::max(1, run.num_routers)) *
                            std::max(1e-9, run.step_times[std::size_t(t)]));
  for (int c = 0; c < mon::kNumCounters; ++c)
    out[i++] = run.step_counters[std::size_t(t)][std::size_t(c)] * inv;
  if (int(fs) >= int(FeatureSet::AppPlacement)) {
    out[i++] = double(run.num_routers);
    out[i++] = double(run.num_groups);
  }
  if (int(fs) >= int(FeatureSet::AppPlacementIo))
    for (double v : run.step_ldms[std::size_t(t)].io) out[i++] = v;
  if (int(fs) >= int(FeatureSet::AppPlacementIoSys))
    for (double v : run.step_ldms[std::size_t(t)].sys) out[i++] = v;
}

WindowData build_windows(const sim::Dataset& ds, const WindowConfig& cfg) {
  DFV_CHECK(cfg.m >= 1 && cfg.k >= 1);
  const StepFeatureCache cache(ds);
  const WindowIndex index = build_window_index(ds, cache, cfg.m, cfg.k);
  const WindowViews views = make_window_views(cache, index, cfg.features);
  WindowData out;
  out.x = materialize(views.all());
  out.y = index.y;
  out.persistence = index.persistence;
  out.run_of = index.run_of;
  return out;
}

namespace {

/// Dataset-level mean baseline over observed steps (the tolerant curve
/// reports NaN for steps no run observed usably).
double dataset_mean_step(const sim::Dataset& ds) {
  double mean_step = 0.0;
  int n = 0;
  for (double v : ds.mean_step_curve())
    if (std::isfinite(v)) {
      mean_step += v;
      ++n;
    }
  return n > 0 ? mean_step / double(n) : 0.0;
}

/// The windows of one (m, k) and their run-grouped CV splits, shared by
/// every feature-set cell at that (m, k).
struct FoldedIndex {
  WindowIndex index;
  std::vector<ml::FoldSplit> folds;
};

/// One fold's MAPEs: the attention forecaster and the two baselines.
struct FoldPartial {
  double attention = 0.0, persistence = 0.0, mean = 0.0;
};

/// Train on one fold's training windows and score its test windows. The
/// design matrices are strided views into the cached per-run feature
/// tables, never materialized copies; the model seed is the fold's
/// substream, so the result does not depend on which task runs it.
FoldPartial evaluate_fold(const WindowViews& views, const WindowIndex& index,
                          const ml::FoldSplit& fold, std::size_t fold_i, double mean_step,
                          const WindowConfig& wcfg, const ForecastConfig& fcfg) {
  std::vector<const double*> train_ptrs, test_ptrs;
  const ml::RowBatch x_train = views.select(fold.train, train_ptrs);
  std::vector<double> y_train(fold.train.size());
  for (std::size_t i = 0; i < fold.train.size(); ++i) y_train[i] = index.y[fold.train[i]];

  ml::AttentionParams ap = fcfg.attention;
  ap.seed = exec::substream_seed(fcfg.attention.seed, fold_i);
  ml::AttentionForecaster model(wcfg.m, feature_count(wcfg.features), ap);
  model.fit(x_train, y_train);

  const std::vector<double> pred = model.predict(views.select(fold.test, test_ptrs));
  std::vector<double> y_test(fold.test.size()), persist(fold.test.size()),
      mean_pred(fold.test.size());
  for (std::size_t i = 0; i < fold.test.size(); ++i) {
    y_test[i] = index.y[fold.test[i]];
    persist[i] = index.persistence[fold.test[i]];
    mean_pred[i] = mean_step * double(wcfg.k);
  }
  return {ml::mape(y_test, pred), ml::mape(y_test, persist), ml::mape(y_test, mean_pred)};
}

}  // namespace

ForecastEval evaluate_forecast(const sim::Dataset& ds, const WindowConfig& wcfg,
                               const ForecastConfig& fcfg) {
  return evaluate_forecast_grid(ds, {&wcfg, 1}, fcfg).front().eval;
}

std::vector<ForecastGridCell> evaluate_forecast_grid(const sim::Dataset& ds,
                                                     std::span<const WindowConfig> cells,
                                                     const ForecastConfig& fcfg) {
  DFV_CHECK(fcfg.folds >= 1);
  for (const WindowConfig& c : cells) DFV_CHECK(c.m >= 1 && c.k >= 1);
  // Features, window indices and fold splits are shared across the whole
  // grid: the cache is built once, and cells differing only in feature
  // set reuse the same (m, k) index and splits (window admission never
  // depends on features, and every cell's splits come from a fresh
  // Rng(fcfg.seed) over the same run ids).
  const StepFeatureCache cache(ds);
  const double mean_step = dataset_mean_step(ds);
  std::vector<FoldedIndex> indices;
  std::vector<std::size_t> index_of(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const WindowConfig& c = cells[i];
    const auto it = std::find_if(indices.begin(), indices.end(), [&](const FoldedIndex& fi) {
      return fi.index.m == c.m && fi.index.k == c.k;
    });
    index_of[i] = std::size_t(it - indices.begin());
    if (it != indices.end()) continue;
    WindowIndex index = build_window_index(ds, cache, c.m, c.k);
    DFV_CHECK_MSG(index.size() >= std::size_t(2 * fcfg.folds),
                  "too few forecasting windows for CV: "
                      << index.size() << " windows < 2*" << fcfg.folds << " folds at (m="
                      << c.m << ", k=" << c.k << ")");
    Rng rng(fcfg.seed);
    auto folds = ml::group_kfold(index.run_of, std::size_t(fcfg.folds), rng);
    indices.push_back({std::move(index), std::move(folds)});
  }
  std::vector<WindowViews> views(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    views[i] = make_window_views(cache, indices[index_of[i]].index, cells[i].features);

  // One task per (cell, fold), cell-major. Each task writes only its own
  // slot, and slots combine per cell in fold order, so every cell's
  // numbers are identical for any thread count and to evaluating it
  // alone. Fits nested inside a task run inline.
  const std::size_t nfolds = std::size_t(fcfg.folds);
  std::vector<FoldPartial> parts(cells.size() * nfolds);
  exec::parallel_for(0, parts.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t i = t / nfolds, fold_i = t % nfolds;
      const FoldedIndex& fi = indices[index_of[i]];
      parts[t] = evaluate_fold(views[i], fi.index, fi.folds[fold_i], fold_i, mean_step,
                               cells[i], fcfg);
    }
  });

  std::vector<ForecastGridCell> out(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ForecastEval& eval = out[i].eval;
    out[i].window = cells[i];
    eval.windows = indices[index_of[i]].index.size();
    for (std::size_t f = 0; f < nfolds; ++f) {
      const FoldPartial& p = parts[i * nfolds + f];
      eval.mape_attention += p.attention / double(nfolds);
      eval.mape_persistence += p.persistence / double(nfolds);
      eval.mape_mean += p.mean / double(nfolds);
    }
  }
  return out;
}

std::vector<double> forecast_feature_importance(const sim::Dataset& ds,
                                                const WindowConfig& wcfg,
                                                const ForecastConfig& fcfg) {
  DFV_CHECK(wcfg.m >= 1 && wcfg.k >= 1);
  const StepFeatureCache cache(ds);
  const WindowIndex index = build_window_index(ds, cache, wcfg.m, wcfg.k);
  const WindowViews views = make_window_views(cache, index, wcfg.features);
  ml::AttentionForecaster model(wcfg.m, feature_count(wcfg.features), fcfg.attention);
  model.fit(views.all(), index.y);
  // The permutation scan mutates one feature column at a time, so it
  // works on the one materialized copy it would build anyway.
  const ml::Matrix x = materialize(views.all());
  Rng rng(hash_combine(fcfg.seed, 0x1397));
  return model.permutation_importance(x, index.y, rng);
}

LongRunForecast forecast_long_run(const sim::Dataset& train,
                                  const sim::RunRecord& long_run,
                                  const WindowConfig& wcfg, const ForecastConfig& fcfg) {
  const StepFeatureCache cache(train);
  const WindowIndex index = build_window_index(train, cache, wcfg.m, wcfg.k);
  const WindowViews views = make_window_views(cache, index, wcfg.features);
  ml::AttentionForecaster model(wcfg.m, feature_count(wcfg.features), fcfg.attention);
  model.fit(views.all(), index.y);

  const int T = long_run.steps();
  LongRunForecast out;
  // The long run gets its own feature table; each clean segment is a
  // strided window view into it, predicted in one batch.
  const RunFeatureTable table = build_run_table(long_run);
  std::vector<const double*> seg_base;
  for (int seg = wcfg.m; seg + wcfg.k <= T; seg += wcfg.k) {
    if (!table.span_clean(seg - wcfg.m, seg + wcfg.k)) continue;
    double observed = 0.0;
    for (int j = 0; j < wcfg.k; ++j) observed += long_run.step_times[std::size_t(seg + j)];
    out.segment_start.push_back(seg);
    out.observed.push_back(observed);
    seg_base.push_back(table.step_row(seg - wcfg.m));
  }
  DFV_CHECK_MSG(!out.observed.empty(), "long run yields no clean forecast segments");
  out.predicted = model.predict(ml::RowBatch{seg_base, std::size_t(wcfg.m),
                                             std::size_t(feature_count(wcfg.features)),
                                             std::size_t(superset_feature_count())});
  out.mape = ml::mape(out.observed, out.predicted);
  return out;
}

}  // namespace dfv::analysis
