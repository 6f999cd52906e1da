// Forecasting pipeline (§IV-C, §V-C, Figs. 8/10/11/12): predict the sum
// of the next k step times from the last m steps of features with the
// attention forecaster, sweeping the temporal context m, horizon k, and
// feature sets {app, +placement, +io, +sys}.
#pragma once

#include <string>
#include <vector>

#include "ml/attention.hpp"
#include "sim/dataset.hpp"

namespace dfv::analysis {

/// Cumulative feature sets of the paper's ablations (Figs. 8 and 10).
enum class FeatureSet : int {
  App = 0,              ///< the 13 job-router counters
  AppPlacement,         ///< + NUM_ROUTERS, NUM_GROUPS
  AppPlacementIo,       ///< + 4 LDMS I/O-router aggregates
  AppPlacementIoSys,    ///< + 4 LDMS non-job ("sys") aggregates
};

[[nodiscard]] const char* to_string(FeatureSet fs) noexcept;
[[nodiscard]] int feature_count(FeatureSet fs) noexcept;  // 13 / 15 / 19 / 23
[[nodiscard]] std::vector<std::string> feature_names(FeatureSet fs);

struct WindowConfig {
  int m = 3;  ///< history length (steps)
  int k = 5;  ///< horizon (steps whose total time is predicted)
  FeatureSet features = FeatureSet::App;
};

/// Sliding windows built from a dataset ("slide t_c between m and T-k").
struct WindowData {
  ml::Matrix x;                      ///< rows of length m * F, time-major
  std::vector<double> y;             ///< sum of next k step times
  std::vector<double> persistence;   ///< baseline: k * mean(last m step times)
  std::vector<std::size_t> run_of;   ///< originating run per window
};

[[nodiscard]] WindowData build_windows(const sim::Dataset& ds, const WindowConfig& cfg);

/// Extract the per-step feature vector (used by build_windows and the
/// long-run forecaster).
void step_features(const sim::RunRecord& run, int t, FeatureSet fs,
                   std::span<double> out);

struct ForecastConfig {
  ml::AttentionParams attention;
  int folds = 3;  ///< run-grouped CV folds
  std::uint64_t seed = 0xf0ca;

  ForecastConfig() {
    attention.d_model = 12;
    attention.d_hidden = 16;
    attention.epochs = 30;
    attention.batch = 32;
  }
};

struct ForecastEval {
  double mape_attention = 0.0;
  double mape_persistence = 0.0;  ///< k * mean of last m observed step times
  double mape_mean = 0.0;         ///< k * dataset mean step time
  std::size_t windows = 0;
};

/// Cross-validated forecasting MAPE for one (m, k, feature set) cell of
/// Fig. 8 / Fig. 10: the one-cell evaluate_forecast_grid.
[[nodiscard]] ForecastEval evaluate_forecast(const sim::Dataset& ds,
                                             const WindowConfig& wcfg,
                                             const ForecastConfig& fcfg);

/// One evaluated cell of the Fig. 8 / Fig. 10 ablation grids.
struct ForecastGridCell {
  WindowConfig window;
  ForecastEval eval;
};

/// Evaluate a whole (m, k, feature-set) ablation grid. Every (cell, fold)
/// pair is one task on the dfv::exec pool, and fold results combine per
/// cell in fold order; the result order matches `cells`, and every
/// cell's numbers are identical to evaluating it alone. Throws
/// ContractError when an (m, k) has fewer than 2 * folds windows.
[[nodiscard]] std::vector<ForecastGridCell> evaluate_forecast_grid(
    const sim::Dataset& ds, std::span<const WindowConfig> cells,
    const ForecastConfig& fcfg);

/// Permutation feature importances of a forecaster trained on the full
/// dataset (Fig. 11).
[[nodiscard]] std::vector<double> forecast_feature_importance(const sim::Dataset& ds,
                                                              const WindowConfig& wcfg,
                                                              const ForecastConfig& fcfg);

/// Fig. 12: train on `train`, then forecast a long run in consecutive
/// segments of k steps using the previous m steps.
struct LongRunForecast {
  std::vector<double> observed;   ///< per segment: actual sum of k step times
  std::vector<double> predicted;  ///< per segment: forecast
  std::vector<int> segment_start; ///< first step index of each segment
  double mape = 0.0;
};

[[nodiscard]] LongRunForecast forecast_long_run(const sim::Dataset& train,
                                                const sim::RunRecord& long_run,
                                                const WindowConfig& wcfg,
                                                const ForecastConfig& fcfg);

}  // namespace dfv::analysis
