#include "analysis/forecast.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "analysis/window_cache.hpp"
#include "common/check.hpp"
#include "common/integrity.hpp"
#include "common/stats.hpp"
#include "exec/exec.hpp"
#include "ml/metrics.hpp"
#include "synthetic.hpp"

namespace dfv::analysis {
namespace {

ForecastConfig fast_config() {
  ForecastConfig cfg;
  cfg.folds = 3;
  cfg.attention.epochs = 25;
  cfg.attention.d_model = 8;
  cfg.attention.d_hidden = 8;
  return cfg;
}

TEST(Forecast, FeatureSetSizesAndNames) {
  EXPECT_EQ(feature_count(FeatureSet::App), 13);
  EXPECT_EQ(feature_count(FeatureSet::AppPlacement), 15);
  EXPECT_EQ(feature_count(FeatureSet::AppPlacementIo), 19);
  EXPECT_EQ(feature_count(FeatureSet::AppPlacementIoSys), 23);
  const auto names = feature_names(FeatureSet::AppPlacementIoSys);
  ASSERT_EQ(names.size(), 23u);
  EXPECT_EQ(names[0], "RT_FLIT_TOT");
  EXPECT_EQ(names[13], "NUM_ROUTERS");
  EXPECT_EQ(names[15], "IO_RT_FLIT_TOT");
  EXPECT_EQ(names[19], "SYS_RT_FLIT_TOT");
  EXPECT_STREQ(to_string(FeatureSet::AppPlacementIo), "app+placement+io");
}

TEST(Forecast, FeatureVectorsSyncWithNamesAcrossAllSets) {
  // The names list, the advertised count, and the values step_features
  // actually writes must agree for every feature set — and each narrower
  // set must be an exact column prefix of the superset (the property the
  // window cache's shared tables rely on).
  testutil::SyntheticSpec spec;
  spec.runs = 2;
  spec.steps = 6;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const auto& run = ds.runs[0];

  std::vector<double> superset(std::size_t(superset_feature_count()),
                               std::numeric_limits<double>::quiet_NaN());
  step_features(run, 1, FeatureSet::AppPlacementIoSys, superset);

  for (FeatureSet fs : {FeatureSet::App, FeatureSet::AppPlacement,
                        FeatureSet::AppPlacementIo, FeatureSet::AppPlacementIoSys}) {
    const std::size_t F = std::size_t(feature_count(fs));
    EXPECT_EQ(feature_names(fs).size(), F) << to_string(fs);
    std::vector<double> out(F, std::numeric_limits<double>::quiet_NaN());
    step_features(run, 1, fs, out);
    for (std::size_t i = 0; i < F; ++i) {
      EXPECT_TRUE(std::isfinite(out[i])) << to_string(fs) << " feature " << i;
      EXPECT_EQ(out[i], superset[i]) << to_string(fs) << " is not a prefix at " << i;
    }
    // A too-small span is rejected rather than silently truncated.
    std::vector<double> small(F - 1);
    EXPECT_THROW(step_features(run, 1, fs, small), ContractError);
  }
}

TEST(Forecast, WindowCacheMatchesLegacyWindows) {
  testutil::SyntheticSpec spec;
  spec.runs = 8;
  spec.steps = 14;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const WindowConfig wcfg{3, 4, FeatureSet::AppPlacementIo};

  const WindowData wd = build_windows(ds, wcfg);
  const StepFeatureCache cache(ds);
  const WindowIndex index = build_window_index(ds, cache, wcfg.m, wcfg.k);
  ASSERT_EQ(index.size(), wd.y.size());
  EXPECT_EQ(index.run_of, wd.run_of);
  EXPECT_EQ(index.y, wd.y);
  EXPECT_EQ(index.persistence, wd.persistence);

  // Strided views gather bit-identically to the materialized rows.
  const WindowViews views = make_window_views(cache, index, wcfg.features);
  const ml::RowBatch batch = views.all();
  ASSERT_EQ(batch.size(), wd.x.rows());
  ASSERT_EQ(batch.row_len(), wd.x.cols());
  std::vector<double> row(batch.row_len());
  for (std::size_t w = 0; w < batch.size(); ++w) {
    batch.gather(w, row.data());
    for (std::size_t c = 0; c < row.size(); ++c)
      ASSERT_EQ(row[c], wd.x(w, c)) << "window " << w << " col " << c;
  }
}

TEST(Forecast, GridAndImportanceBitIdenticalAcrossThreadCounts) {
  testutil::SyntheticSpec spec;
  spec.runs = 18;
  spec.steps = 14;
  spec.phi = 0.8;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  ForecastConfig fcfg = fast_config();
  fcfg.attention.epochs = 8;
  const WindowConfig cells[] = {{2, 3, FeatureSet::App},
                                {4, 3, FeatureSet::App},
                                {4, 3, FeatureSet::AppPlacementIoSys}};
  const WindowConfig icfg{3, 3, FeatureSet::App};

  std::vector<std::vector<ForecastGridCell>> grids;
  std::vector<std::vector<double>> imps;
  for (int threads : {1, 2, 8}) {
    exec::ThreadPool::instance().resize(threads);
    grids.push_back(evaluate_forecast_grid(ds, cells, fcfg));
    imps.push_back(forecast_feature_importance(ds, icfg, fcfg));
  }
  exec::ThreadPool::instance().resize(4);

  for (std::size_t v = 1; v < grids.size(); ++v) {
    ASSERT_EQ(grids[v].size(), grids[0].size());
    for (std::size_t i = 0; i < grids[0].size(); ++i) {
      EXPECT_EQ(grids[v][i].eval.mape_attention, grids[0][i].eval.mape_attention)
          << "cell " << i << " variant " << v;
      EXPECT_EQ(grids[v][i].eval.mape_persistence, grids[0][i].eval.mape_persistence);
      EXPECT_EQ(grids[v][i].eval.mape_mean, grids[0][i].eval.mape_mean);
      EXPECT_EQ(grids[v][i].eval.windows, grids[0][i].eval.windows);
    }
    ASSERT_EQ(imps[v].size(), imps[0].size());
    for (std::size_t f = 0; f < imps[0].size(); ++f)
      EXPECT_EQ(imps[v][f], imps[0][f]) << "importance " << f << " variant " << v;
  }
}

TEST(Forecast, GoldenGridDigest) {
  // Pins the grid's output bits across commits: an FNV-1a hash of every
  // cell's three MAPEs and window count over two (m, k) indices and two
  // feature sets, equal at every pool width.
  testutil::SyntheticSpec spec;
  spec.runs = 18;
  spec.steps = 14;
  spec.phi = 0.8;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  ForecastConfig fcfg = fast_config();
  fcfg.attention.epochs = 6;
  const WindowConfig cells[] = {{2, 3, FeatureSet::App},
                                {2, 3, FeatureSet::AppPlacementIo},
                                {4, 5, FeatureSet::App},
                                {4, 5, FeatureSet::AppPlacementIo}};
  for (int threads : {1, 3, 8}) {
    exec::ThreadPool::instance().resize(threads);
    std::uint64_t h = kFnvBasis;
    for (const ForecastGridCell& cell : evaluate_forecast_grid(ds, cells, fcfg)) {
      for (double v : {cell.eval.mape_attention, cell.eval.mape_persistence,
                       cell.eval.mape_mean}) {
        const auto u = std::bit_cast<std::uint64_t>(v);
        h = fnv1a64_update(h, &u, sizeof u);
      }
      const auto w = std::uint64_t(cell.eval.windows);
      h = fnv1a64_update(h, &w, sizeof w);
    }
    EXPECT_EQ(h, 0x6462e118018a04ccull) << "threads " << threads << ": 0x" << std::hex << h;
  }
  exec::ThreadPool::instance().resize(4);
}

TEST(Forecast, TooFewWindowsForFoldsReportsShape) {
  testutil::SyntheticSpec spec;
  spec.runs = 1;
  spec.steps = 9;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  ForecastConfig fcfg = fast_config();
  fcfg.folds = 4;  // 1 run x few windows cannot fill 2*4 windows
  try {
    (void)evaluate_forecast(ds, WindowConfig{4, 4, FeatureSet::App}, fcfg);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("folds"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(m=4, k=4)"), std::string::npos) << msg;
  }
}

TEST(Forecast, WindowConstruction) {
  testutil::SyntheticSpec spec;
  spec.runs = 10;
  spec.steps = 12;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const WindowConfig wcfg{/*m=*/3, /*k=*/4, FeatureSet::AppPlacement};
  const WindowData wd = build_windows(ds, wcfg);

  // t_c slides from m to T-k: T - k - m + 1 windows per run.
  const std::size_t per_run = std::size_t(spec.steps - 3 - 4 + 1);
  EXPECT_EQ(wd.y.size(), per_run * std::size_t(spec.runs));
  EXPECT_EQ(wd.x.cols(), std::size_t(3 * 15));
  EXPECT_EQ(wd.run_of.front(), 0u);
  EXPECT_EQ(wd.run_of.back(), std::size_t(spec.runs - 1));

  // First window of run 0: target = sum of steps 3..6, persistence from
  // steps 0..2.
  const auto& run = ds.runs[0];
  double target = 0.0;
  for (int t = 3; t < 7; ++t) target += run.step_times[std::size_t(t)];
  EXPECT_NEAR(wd.y[0], target, 1e-12);
  double recent = 0.0;
  for (int t = 0; t < 3; ++t) recent += run.step_times[std::size_t(t)];
  EXPECT_NEAR(wd.persistence[0], recent / 3.0 * 4.0, 1e-12);

  // The window's first feature vector equals step 0's features.
  std::vector<double> f(15);
  step_features(run, 0, FeatureSet::AppPlacement, f);
  for (int i = 0; i < 15; ++i) EXPECT_DOUBLE_EQ(wd.x(0, std::size_t(i)), f[std::size_t(i)]);
}

TEST(Forecast, WindowTooLargeThrows) {
  testutil::SyntheticSpec spec;
  spec.runs = 4;
  spec.steps = 6;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  EXPECT_THROW((void)build_windows(ds, WindowConfig{4, 4, FeatureSet::App}),
               ContractError);
}

TEST(Forecast, AttentionBeatsMeanBaselineOnAutocorrelatedData) {
  // phi = 0.9 makes the counter history genuinely predictive of the next
  // k steps' total time.
  testutil::SyntheticSpec spec;
  spec.runs = 60;
  spec.steps = 24;
  spec.phi = 0.9;
  spec.driver_strength = 2.0;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const WindowConfig wcfg{/*m=*/4, /*k=*/6, FeatureSet::App};
  const ForecastEval eval = evaluate_forecast(ds, wcfg, fast_config());

  EXPECT_GT(eval.windows, 100u);
  EXPECT_LT(eval.mape_attention, eval.mape_mean);
  EXPECT_LT(eval.mape_attention, 20.0);
}

TEST(Forecast, ImportanceHighlightsDriverCounter) {
  testutil::SyntheticSpec spec;
  spec.runs = 60;
  spec.steps = 24;
  spec.phi = 0.9;
  spec.driver_strength = 3.0;
  spec.driver_counter = int(mon::Counter::RT_RB_STL);
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const WindowConfig wcfg{4, 6, FeatureSet::App};
  const auto imp = forecast_feature_importance(ds, wcfg, fast_config());
  ASSERT_EQ(imp.size(), 13u);
  // The driver counter dominates the permutation importance.
  for (int c = 0; c < mon::kNumCounters; ++c) {
    if (c == spec.driver_counter) continue;
    EXPECT_GE(imp[std::size_t(spec.driver_counter)], imp[std::size_t(c)]);
  }
}

TEST(Forecast, LongRunSegments) {
  testutil::SyntheticSpec spec;
  spec.runs = 40;
  spec.steps = 24;
  spec.phi = 0.9;
  const sim::Dataset train = testutil::make_planted_dataset(spec);

  testutil::SyntheticSpec long_spec = spec;
  long_spec.runs = 1;
  long_spec.steps = 120;
  long_spec.seed = 999;
  const sim::Dataset long_ds = testutil::make_planted_dataset(long_spec);

  const WindowConfig wcfg{/*m=*/4, /*k=*/6, FeatureSet::App};
  const LongRunForecast lr =
      forecast_long_run(train, long_ds.runs[0], wcfg, fast_config());

  // Segments tile [m, T): (120 - 4) / 6 full segments.
  EXPECT_EQ(lr.observed.size(), std::size_t((120 - 4) / 6));
  EXPECT_EQ(lr.observed.size(), lr.predicted.size());
  EXPECT_EQ(lr.segment_start.front(), 4);
  EXPECT_GT(lr.mape, 0.0);
  // Better than predicting the constant k * (train mean step time).
  const double mean_step = stats::mean(train.mean_step_curve());
  const std::vector<double> constant(lr.observed.size(), mean_step * wcfg.k);
  EXPECT_LT(lr.mape, ml::mape(lr.observed, constant));
}

}  // namespace
}  // namespace dfv::analysis
