// Figure 10: forecasting MAPE for the MILC 128- and 512-node datasets
// for m = {10, 30}, k = {20, 40} and the cumulative feature sets
// {app, +placement, +io, +sys}. Paper: same m/k trends as AMG, and —
// unlike AMG — adding io and sys features successively lowers the error
// because MILC is bandwidth-bound and feels system-wide I/O traffic.
#include <iostream>

#include "analysis/forecast.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace dfv;
  bench::print_header("Figure 10",
                      "Forecasting MAPE: MILC, m={10,30}, k={20,40}, feature ablation");
  const auto campaign = bench::load_campaign();

  analysis::ForecastConfig fcfg;
  const std::vector<analysis::FeatureSet> feature_sets = {
      analysis::FeatureSet::App, analysis::FeatureSet::AppPlacement,
      analysis::FeatureSet::AppPlacementIo, analysis::FeatureSet::AppPlacementIoSys};

  for (int nodes : {128, 512}) {
    std::cout << "MILC " << nodes << " nodes:\n";
    Table t({"m", "k", "features", "attention MAPE (%)", "persistence (%)", "mean (%)"});
    std::vector<double> mape_by_fs(feature_sets.size(), 0.0);
    int cells = 0;
    for (int k : {20, 40})
      for (int m : {10, 30}) {
        for (std::size_t f = 0; f < feature_sets.size(); ++f) {
          const analysis::WindowConfig wcfg{m, k, feature_sets[f]};
          const auto eval =
              analysis::evaluate_forecast(campaign.dataset("MILC", nodes), wcfg, fcfg);
          t.add_row({std::to_string(m), std::to_string(k),
                     analysis::to_string(feature_sets[f]),
                     format_double(eval.mape_attention, 2),
                     format_double(eval.mape_persistence, 2),
                     format_double(eval.mape_mean, 2)});
          mape_by_fs[f] += eval.mape_attention;
        }
        ++cells;
      }
    std::cout << t.str();
    std::cout << "mean MAPE by feature set:";
    for (std::size_t f = 0; f < feature_sets.size(); ++f)
      std::cout << "  " << analysis::to_string(feature_sets[f]) << "="
                << format_double(mape_by_fs[f] / cells, 2) << "%";
    std::cout << "\n\n";
  }
  std::cout << "Shape to match: larger m and k lower the MAPE; io and sys features\n"
               "successively improve MILC forecasts (system-wide I/O traffic matters\n"
               "for a bandwidth-bound code).\n";
  return 0;
}
