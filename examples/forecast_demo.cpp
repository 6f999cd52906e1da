// Forecast demo: generate a small campaign, train the attention
// forecaster on MILC windows, and forecast a held-out run step-segment
// by step-segment (a miniature of the paper's Fig. 12 workflow).
//
//   ./forecast_demo
#include <iostream>

#include "analysis/forecast.hpp"
#include "common/ascii_plot.hpp"
#include "common/table.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "sim/campaign.hpp"

using namespace dfv;

int main() {
  set_log_level(LogLevel::Warn);
  // Small machine + short campaign so the demo runs in seconds.
  sim::CampaignConfig cfg = sim::CampaignConfig::small(/*seed=*/3);
  cfg.days = 14;
  cfg.datasets = {{"MILC", 128}};
  const sim::CampaignResult campaign = sim::run_campaign(cfg);

  const sim::Dataset& milc = campaign.dataset("MILC", 128);
  std::cout << "campaign generated " << milc.num_runs() << " MILC-128 runs of "
            << milc.steps_per_run() << " steps each\n\n";

  const analysis::WindowConfig wcfg{/*m=*/10, /*k=*/20, analysis::FeatureSet::App};
  analysis::ForecastConfig fcfg;
  fcfg.attention.epochs = 25;

  const analysis::ForecastEval eval = analysis::evaluate_forecast(milc, wcfg, fcfg);
  Table t({"model", "MAPE (%)"});
  t.add_row({"attention forecaster", format_double(eval.mape_attention, 2)});
  t.add_row({"persistence (k x mean of last m)", format_double(eval.mape_persistence, 2)});
  t.add_row({"dataset mean", format_double(eval.mape_mean, 2)});
  std::cout << t.str() << "\n";

  // Forecast the last run as if it were unseen: train on the rest.
  sim::Dataset train = milc;
  const sim::RunRecord held_out = train.runs.back();
  train.runs.pop_back();
  const analysis::WindowConfig seg_cfg{/*m=*/10, /*k=*/10, analysis::FeatureSet::App};
  const analysis::LongRunForecast lr =
      analysis::forecast_long_run(train, held_out, seg_cfg, fcfg);

  std::cout << "held-out run, " << lr.observed.size() << " segments of " << seg_cfg.k
            << " steps, MAPE " << format_double(lr.mape, 2) << "%\n";
  std::cout << line_plot({Series{"observed", lr.observed}, Series{"predicted", lr.predicted}},
                         {.width = 60,
                          .height = 10,
                          .title = "held-out MILC run: time per segment (s)",
                          .x_label = "segment"});
  return 0;
}
