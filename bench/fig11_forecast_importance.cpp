// Figure 11: feature importances derived from the forecasting models for
// AMG (m=8, k=10; app+placement) and MILC (m=30, k=40; all features).
// Paper: for AMG, PT_RB_STL_RS and flit counters gain relevance relative
// to the deviation analysis; for MILC, the I/O flit counter
// (IO_PT_FLIT_TOT) has the highest relevance — I/O traffic is a strong
// predictor of MILC's future performance.
#include <iostream>

#include "analysis/forecast.hpp"
#include "bench_common.hpp"
#include "common/ascii_plot.hpp"

int main() {
  using namespace dfv;
  bench::print_header("Figure 11", "Forecasting-model feature importances (AMG & MILC)");
  const auto campaign = bench::load_campaign();
  analysis::ForecastConfig fcfg;

  for (int nodes : {128, 512}) {
    const analysis::WindowConfig wcfg{8, 10, analysis::FeatureSet::AppPlacement};
    const auto imp =
        analysis::forecast_feature_importance(campaign.dataset("AMG", nodes), wcfg, fcfg);
    std::cout << bar_chart(analysis::feature_names(wcfg.features), imp, 48,
                           "AMG " + std::to_string(nodes) +
                               " nodes (m=8, k=10, app+placement): permutation importance")
              << "\n";
  }
  for (int nodes : {128, 512}) {
    const analysis::WindowConfig wcfg{30, 40, analysis::FeatureSet::AppPlacementIoSys};
    const auto imp =
        analysis::forecast_feature_importance(campaign.dataset("MILC", nodes), wcfg, fcfg);
    std::cout << bar_chart(analysis::feature_names(wcfg.features), imp, 48,
                           "MILC " + std::to_string(nodes) +
                               " nodes (m=30, k=40, all features): permutation importance")
              << "\n";
  }
  std::cout << "Shape to match: for MILC the io features (IO_PT_FLIT_TOT) rank at or\n"
               "near the top; job-router counters still matter but less than in the\n"
               "deviation analysis.\n";
  return 0;
}
