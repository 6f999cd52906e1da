// End-to-end integration: a small campaign through every analysis, with
// the same calls the bench binaries make at Cori scale (load the
// campaign, read a dataset, hand it to the analysis layer).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "analysis/deviation.hpp"
#include "analysis/forecast.hpp"
#include "analysis/neighborhood.hpp"
#include "common/log.hpp"
#include "sim/campaign.hpp"

namespace dfv {
namespace {

class StudyIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
    cfg.days = 8;
    cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
    campaign_.emplace(sim::run_campaign(cfg));  // generate once for all tests
  }
  static void TearDownTestSuite() { campaign_.reset(); }
  static const sim::Dataset& milc() { return campaign_->dataset("MILC", 128); }
  static std::optional<sim::CampaignResult> campaign_;
};

std::optional<sim::CampaignResult> StudyIntegration::campaign_;

TEST_F(StudyIntegration, CampaignShape) {
  const sim::Dataset& ds = milc();
  EXPECT_GE(ds.num_runs(), 8u);
  EXPECT_EQ(ds.steps_per_run(), 80);
  // Mean step curve shows the warmup/steady structure.
  const auto curve = ds.mean_step_curve();
  EXPECT_LT(curve[5], 0.6 * curve[50]);
}

TEST_F(StudyIntegration, RunsVaryAcrossCampaign) {
  const auto totals = milc().total_times();
  const double best = *std::min_element(totals.begin(), totals.end());
  const double worst = *std::max_element(totals.begin(), totals.end());
  EXPECT_GT(worst / best, 1.05);  // some variability even in a short window
}

TEST_F(StudyIntegration, NeighborhoodAnalysisRuns) {
  const auto res = analysis::analyze_neighborhood(milc());
  EXPECT_FALSE(res.ranked.empty());
  EXPECT_GT(res.optimal_fraction, 0.0);
  const auto blamed = analysis::blamed_users(res, 9, 1e-4);
  EXPECT_LE(blamed.size(), 9u);
}

TEST_F(StudyIntegration, DeviationAnalysisRuns) {
  analysis::DeviationConfig cfg;
  cfg.rfe.folds = 4;
  cfg.rfe.gbr.n_trees = 25;
  const auto res = analysis::analyze_deviation(milc(), cfg);
  EXPECT_EQ(res.relevance.size(), std::size_t(mon::kNumCounters));
  EXPECT_GT(res.cv_mape, 0.0);
  EXPECT_LT(res.cv_mape, 50.0);
  double total_survival = 0.0;
  for (double v : res.survival) total_survival += v;
  EXPECT_GT(total_survival, 0.0);
}

TEST_F(StudyIntegration, ForecastRuns) {
  analysis::ForecastConfig cfg;
  cfg.folds = 3;
  cfg.attention.epochs = 12;
  const analysis::WindowConfig wcfg{10, 20, analysis::FeatureSet::App};
  const auto eval = analysis::evaluate_forecast(milc(), wcfg, cfg);
  EXPECT_GT(eval.windows, 50u);
  EXPECT_GT(eval.mape_attention, 0.0);
  EXPECT_LT(eval.mape_attention, 80.0);
  EXPECT_GT(eval.mape_mean, 0.0);
}

}  // namespace
}  // namespace dfv
