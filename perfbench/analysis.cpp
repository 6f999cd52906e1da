// `analysis` workload: open the paper-sized campaign from the primed
// cache (the set-up), then run blame (Table III) and deviation (Fig. 9) on
// every dataset, and the Fig. 8 / Fig. 10 forecast grids on the datasets
// with enough steps. The seed picks which ~90% of each dataset's runs
// enter the pass, so each seed analyses different inputs.
//
// The traced pass repeats the pass through copies of analyze_deviation
// and evaluate_forecast_grid built from the public calls they are made
// of, with a span around each, and must reproduce the untraced results
// bit for bit. A library change that keeps the results but moves the time
// is caught by timing: the traced run also times the copies with tracing
// off against the library, call by call, and reports itself incorrect
// when the two differ by more than kCopyTolerance.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>

#include "analysis/deviation.hpp"
#include "analysis/forecast.hpp"
#include "analysis/neighborhood.hpp"
#include "analysis/window_cache.hpp"
#include "common/check.hpp"
#include "exec/exec.hpp"
#include "harness.hpp"
#include "ml/binned.hpp"
#include "ml/kfold.hpp"
#include "ml/metrics.hpp"

namespace perfbench {

namespace {

using namespace dfv;
using analysis::FeatureSet;
using analysis::WindowConfig;
using trace::Span;

/// The paper's ablation grid for a dataset: Fig. 10 (MILC-like, long
/// runs) or Fig. 8 (AMG-like); none when runs are too short for either.
std::vector<WindowConfig> grid_for(int steps) {
  std::vector<WindowConfig> cells;
  if (steps >= 70) {
    for (int k : {20, 40})
      for (int m : {10, 30})
        for (FeatureSet fs : {FeatureSet::App, FeatureSet::AppPlacement,
                              FeatureSet::AppPlacementIo, FeatureSet::AppPlacementIoSys})
          cells.push_back({m, k, fs});
  } else if (steps >= 18) {
    for (int k : {5, 10})
      for (int m : {3, 8})
        for (FeatureSet fs : {FeatureSet::App, FeatureSet::AppPlacement})
          cells.push_back({m, k, fs});
  }
  return cells;
}

/// Keep each run with probability 0.9 under the workload seed.
std::vector<sim::Dataset> select_inputs(const sim::CampaignResult& campaign,
                                        std::uint64_t seed) {
  std::vector<sim::Dataset> out;
  Rng rng(hash_combine(seed, 0xa7a1));
  for (const sim::Dataset& ds : campaign.datasets) {
    sim::Dataset sub;
    sub.spec = ds.spec;
    for (const sim::RunRecord& run : ds.runs)
      if (rng.bernoulli(0.9)) sub.runs.push_back(run);
    out.push_back(std::move(sub));
  }
  return out;
}

// --- traced copies of analyze_deviation / evaluate_forecast_grid ---------

analysis::DeviationResult traced_deviation(const sim::Dataset& ds) {
  Span span("analysis.deviation");
  const analysis::DeviationConfig config;
  analysis::CenteredSamples samples;
  {
    Span s("analysis.centered_samples");
    samples = analysis::build_centered_samples(ds);
  }
  ml::RfeResult rfe;
  {
    Span s("ml.rfe_cv");
    const ml::BinnedDataset binned(samples.x, config.rfe.gbr.tree.histogram_bins);
    rfe = ml::rfe_cv(binned, samples.y, config.rfe, samples.mean_offset, samples.run_of);
  }
  analysis::DeviationResult result;
  result.relevance = rfe.relevance;
  result.survival = rfe.survival;
  result.cv_mape = rfe.cv_mape_full;
  result.cv_mape_linear = rfe.cv_mape_linear;
  result.samples = samples.y.size();
  return result;
}

double dataset_mean_step(const sim::Dataset& ds) {
  double sum = 0.0;
  int n = 0;
  for (double v : ds.mean_step_curve())
    if (std::isfinite(v)) {
      sum += v;
      ++n;
    }
  return n > 0 ? sum / double(n) : 0.0;
}

analysis::ForecastEval traced_cell(const analysis::StepFeatureCache& cache,
                                   const analysis::WindowIndex& index, double mean_step,
                                   const WindowConfig& wcfg,
                                   const analysis::ForecastConfig& fcfg,
                                   std::uint64_t parent) {
  Span cell("analysis.forecast_cell", parent, 0);
  const std::uint64_t cell_id = trace::current();
  analysis::ForecastEval eval;
  eval.windows = index.size();
  DFV_CHECK_MSG(index.size() >= std::size_t(2 * fcfg.folds), "too few forecasting windows");
  analysis::WindowViews views;
  {
    Span s("analysis.build_windows");
    views = analysis::make_window_views(cache, index, wcfg.features);
  }
  Rng rng(fcfg.seed);
  const auto folds = ml::group_kfold(index.run_of, std::size_t(fcfg.folds), rng);
  struct FoldPartial {
    double attention = 0.0, persistence = 0.0, mean = 0.0;
  };
  std::vector<FoldPartial> parts(folds.size());
  ml::run_folds(folds.size(), [&](std::size_t fold_i) {
    const auto& fold = folds[fold_i];
    std::vector<const double*> train_ptrs, test_ptrs;
    const ml::RowBatch x_train = views.select(fold.train, train_ptrs);
    std::vector<double> y_train(fold.train.size());
    for (std::size_t i = 0; i < fold.train.size(); ++i) y_train[i] = index.y[fold.train[i]];

    ml::AttentionParams ap = fcfg.attention;
    ap.seed = exec::substream_seed(fcfg.attention.seed, fold_i);
    ml::AttentionForecaster model(wcfg.m, analysis::feature_count(wcfg.features), ap);
    {
      Span s("ml.attention_fit", cell_id, 0);
      model.fit(x_train, y_train);
    }
    const std::vector<double> pred = model.predict(views.select(fold.test, test_ptrs));
    std::vector<double> y_test(fold.test.size()), persist(fold.test.size()),
        mean_pred(fold.test.size());
    for (std::size_t i = 0; i < fold.test.size(); ++i) {
      y_test[i] = index.y[fold.test[i]];
      persist[i] = index.persistence[fold.test[i]];
      mean_pred[i] = mean_step * double(wcfg.k);
    }
    parts[fold_i] = {ml::mape(y_test, pred), ml::mape(y_test, persist),
                     ml::mape(y_test, mean_pred)};
  });
  for (const FoldPartial& p : parts) {
    eval.mape_attention += p.attention / double(folds.size());
    eval.mape_persistence += p.persistence / double(folds.size());
    eval.mape_mean += p.mean / double(folds.size());
  }
  return eval;
}

std::vector<analysis::ForecastGridCell> traced_grid(const sim::Dataset& ds,
                                                    const std::vector<WindowConfig>& cells) {
  Span span("analysis.forecast_grid");
  const std::uint64_t grid_id = trace::current();
  const analysis::ForecastConfig fcfg;
  std::vector<std::pair<int, int>> mks;
  std::vector<std::size_t> index_of(cells.size());
  std::vector<analysis::WindowIndex> indices;
  std::optional<analysis::StepFeatureCache> cache;
  {
    Span s("analysis.build_windows");
    cache.emplace(ds);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::pair<int, int> mk{cells[i].m, cells[i].k};
      const auto it = std::find(mks.begin(), mks.end(), mk);
      if (it == mks.end()) {
        index_of[i] = mks.size();
        mks.push_back(mk);
        indices.push_back(analysis::build_window_index(ds, *cache, mk.first, mk.second));
      } else {
        index_of[i] = std::size_t(it - mks.begin());
      }
    }
  }
  const double mean_step = dataset_mean_step(ds);
  std::vector<analysis::ForecastGridCell> out(cells.size());
  exec::parallel_for(0, cells.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = {cells[i],
                traced_cell(*cache, indices[index_of[i]], mean_step, cells[i], fcfg, grid_id)};
  });
  return out;
}

// --- one pass ------------------------------------------------------------

/// Which code runs deviation and the forecast grids: the library or this
/// file's copies, which record spans while tracing is on.
enum class Path { Library, Copy };

/// Wall time of each call of one pass, in a fixed order (a failed call
/// reads 0), so every call can be compared with itself across passes.
struct PassTimes {
  std::vector<double> blame_s, deviation_s, grid_s;
  std::vector<double> copy_deviation_s, copy_grid_s;  ///< paired passes
  std::uint64_t digest = 0;
};

void check_finite(Result& res, double v, const std::string& what) {
  if (!std::isfinite(v)) res.fail(what + " is not finite");
}

/// One pass through `path`. `paired` also times the copy of each
/// deviation and grid call right after the call.
PassTimes analysis_pass(const std::vector<sim::Dataset>& inputs, Path path, bool paired,
                        Result& res) {
  const bool copy = path == Path::Copy;
  PassTimes t;
  Digest digest;
  for (const sim::Dataset& ds : inputs) {
    const std::string label = ds.spec.label();
    try {
      res.attempted += 1;
      const Stopwatch sw;
      analysis::NeighborhoodResult nb;
      {
        Span s("analysis.neighborhood");
        nb = analysis::analyze_neighborhood(ds);
      }
      t.blame_s.push_back(sw.seconds());
      for (int u : analysis::blamed_users(nb)) digest.u64(std::uint64_t(u));
      for (const auto& score : nb.ranked) digest.f64(score.mi);
    } catch (const std::exception& e) {
      t.blame_s.push_back(0.0);
      res.fail("blame " + label + ": " + e.what());
    }
    try {
      res.attempted += 1;
      const Stopwatch sw;
      const analysis::DeviationResult dev =
          copy ? traced_deviation(ds) : analysis::analyze_deviation(ds);
      t.deviation_s.push_back(sw.seconds());
      if (paired) {
        const Stopwatch csw;
        (void)traced_deviation(ds);
        t.copy_deviation_s.push_back(csw.seconds());
      }
      check_finite(res, dev.cv_mape, "deviation MAPE of " + label);
      check_finite(res, dev.cv_mape_linear, "linear deviation MAPE of " + label);
      digest.f64(dev.cv_mape);
      digest.f64(dev.cv_mape_linear);
      for (double r : dev.relevance) digest.f64(r);
      for (double s : dev.survival) digest.f64(s);
    } catch (const std::exception& e) {
      t.deviation_s.resize(t.blame_s.size(), 0.0);
      if (paired) t.copy_deviation_s.resize(t.blame_s.size(), 0.0);
      res.fail("deviation " + label + ": " + e.what());
    }
  }
  for (const sim::Dataset& ds : inputs) {
    const std::vector<WindowConfig> cells = grid_for(ds.steps_per_run());
    if (cells.empty()) continue;
    const std::string label = ds.spec.label();
    const std::size_t op = t.grid_s.size();
    try {
      res.attempted += 1;
      const Stopwatch sw;
      const auto grid = copy ? traced_grid(ds, cells)
                             : analysis::evaluate_forecast_grid(ds, cells, {});
      t.grid_s.push_back(sw.seconds());
      if (paired) {
        const Stopwatch csw;
        (void)traced_grid(ds, cells);
        t.copy_grid_s.push_back(csw.seconds());
      }
      for (const auto& cell : grid) {
        check_finite(res, cell.eval.mape_attention, "forecast MAPE of " + label);
        check_finite(res, cell.eval.mape_persistence, "persistence MAPE of " + label);
        check_finite(res, cell.eval.mape_mean, "mean MAPE of " + label);
        digest.f64(cell.eval.mape_attention);
        digest.f64(cell.eval.mape_persistence);
        digest.f64(cell.eval.mape_mean);
        digest.u64(cell.eval.windows);
      }
    } catch (const std::exception& e) {
      t.grid_s.resize(op + 1, 0.0);
      if (paired) t.copy_grid_s.resize(op + 1, 0.0);
      res.fail("forecast grid " + label + ": " + e.what());
    }
  }
  t.digest = digest.value();
  return t;
}

struct PassSeries {
  std::vector<PassTimes> passes;
  std::uint64_t digest = 0;

  /// Sum over the calls of `kind` of each call's fastest time across
  /// passes: one pass as it runs undisturbed. On a shared host a call
  /// slowed by CPU taken from outside (its parallel regions wait for the
  /// slowest thread) is retried by the next pass rather than counted.
  [[nodiscard]] double fastest_s(std::vector<double> PassTimes::*kind) const {
    double sum = 0.0;
    for (std::size_t op = 0; op < (passes.front().*kind).size(); ++op) {
      double best = (passes.front().*kind)[op];
      for (const PassTimes& p : passes) best = std::min(best, (p.*kind)[op]);
      sum += best;
    }
    return sum;
  }
  [[nodiscard]] double pass_s() const {
    return fastest_s(&PassTimes::blame_s) + fastest_s(&PassTimes::deviation_s) +
           fastest_s(&PassTimes::grid_s);
  }
  /// Time of the copied calls over the library's (paired passes).
  [[nodiscard]] double copy_speed() const {
    const double lib = fastest_s(&PassTimes::deviation_s) + fastest_s(&PassTimes::grid_s);
    const double cp = fastest_s(&PassTimes::copy_deviation_s) + fastest_s(&PassTimes::copy_grid_s);
    return cp > 0.0 ? lib / cp : 0.0;
  }
};

PassSeries analysis_passes(const std::vector<sim::Dataset>& inputs, double seconds, Path path,
                           bool paired, Result& res) {
  PassSeries s;
  const Stopwatch wall;
  for (int i = 0; i == 0 || wall.seconds() < seconds; ++i) {
    PassTimes t = analysis_pass(inputs, path, paired, res);
    if (i == 0) s.digest = t.digest;
    else if (t.digest != s.digest) res.fail("analysis pass " + std::to_string(i) + " is not deterministic");
    s.passes.push_back(std::move(t));
  }
  return s;
}

sim::CampaignResult open_primed_campaign(const Options& opt) {
  require_primed(opt);
  return sim::run_campaign_cached(paper_sized_config(), opt.cache_dir, sim::CacheFormat::Store);
}

}  // namespace

Result run_analysis_workload(const Options& opt) {
  Result res;
  res.workload = "analysis";

  // Set-up: open the primed campaign (median of 45 opens).
  std::vector<double> opens;
  sim::CampaignResult campaign;
  for (int i = 0; i < 45; ++i) {
    const Stopwatch sw;
    campaign = open_primed_campaign(opt);
    opens.push_back(sw.seconds());
  }
  const std::vector<sim::Dataset> inputs = select_inputs(campaign, opt.seed);
  campaign = {};

  const PassSeries s = analysis_passes(inputs, opt.trace ? opt.seconds / 2 : opt.seconds,
                                       Path::Library, opt.trace, res);
  res.digest = s.digest;
  const double pass_s = s.pass_s();
  res.metric("setup_s", median(opens), "s");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  res.metric("throughput_per_s", pass_s > 0.0 ? 1.0 / pass_s : 0.0, "1/s");
  res.metric("deviation_s", s.fastest_s(&PassTimes::deviation_s), "s");
  res.metric("forecast_grid_s", s.fastest_s(&PassTimes::grid_s), "s");
  res.metric("blame_s", s.fastest_s(&PassTimes::blame_s), "s");
  res.metric("passes", double(s.passes.size()), "count");

  if (opt.trace) {
    const double copy_speed = s.copy_speed();
    std::cout << "copies of deviation and forecast grid, untraced: " << copy_speed
              << " x the library's speed\n";
    if (!(std::abs(copy_speed - 1.0) <= kCopyTolerance))
      res.fail("the traced copies of deviation / forecast grid run at " +
               std::to_string(copy_speed) + " x the library's speed; bring them up to date");
    trace::enable(true);
    {
      Span open("sim.cache_open");
      (void)open_primed_campaign(opt);
    }
    const PassSeries t = analysis_passes(inputs, opt.seconds / 2, Path::Copy, false, res);
    const auto stats = finish_trace(opt);
    if (t.digest != s.digest) res.fail("traced analysis digest differs from untraced");
    add_layer_times(res, stats,
                    {{"sim.cache_open", "ms"}, {"analysis.neighborhood", "ms"},
                     {"analysis.centered_samples", "ms"},
                     {"ml.rfe_cv", "ms"}, {"analysis.deviation", "ms"},
                     {"analysis.build_windows", "ms"}, {"ml.attention_fit", "ms"},
                     {"analysis.forecast_grid", "ms"}});
    const double traced_pass = t.pass_s();
    res.layer("trace.overhead_frac", pass_s > 0.0 ? traced_pass / pass_s - 1.0 : 0.0, "ratio");
  }
  return res;
}

}  // namespace perfbench
