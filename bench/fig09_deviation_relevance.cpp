// Figure 9: relevance scores of each counter in predicting the deviation
// from mean behavior, per dataset (RFE + GBR, 10-fold CV). The paper's
// pattern: RT_RB_STL tops MILC (both scales) and matters for AMG-512;
// PT_RB_STL_RQ / PT_RB_2X_USG matter for AMG; PT_RB_STL_RQ dominates
// UMT; flit counters (PT_FLIT_VC0, RT_FLIT_TOT) dominate miniVite.
// MAPE of the prediction models was below 5% for all datasets.
#include <iostream>

#include "analysis/deviation.hpp"
#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "common/ascii_plot.hpp"
#include "common/table.hpp"

int main() {
  using namespace dfv;
  bench::print_header("Figure 9",
                      "Counter relevance for deviation prediction (RFE + GBR, 10-fold CV)");
  const auto campaign = bench::load_campaign();

  std::vector<std::string> labels;
  for (int c = 0; c < mon::kNumCounters; ++c)
    labels.emplace_back(mon::counter_name(mon::counter_from_index(c)));

  Table mape_t({"dataset", "samples", "GBR CV MAPE (%)", "linear baseline MAPE (%)"});
  for (const auto& spec : apps::paper_datasets()) {
    const auto res = analysis::analyze_deviation(campaign.dataset(spec.app, spec.nodes));
    std::cout << bar_chart(labels, res.survival, 48,
                           spec.label() + ": relevance (RFE survival score, 10-fold CV)")
              << "\n";
    // Secondary view: likelihood of membership in the best RFE subset.
    std::cout << "  in-best-subset likelihood:";
    for (int c = 0; c < mon::kNumCounters; ++c)
      if (res.relevance[std::size_t(c)] >= 0.5)
        std::cout << ' ' << labels[std::size_t(c)] << '='
                  << format_double(res.relevance[std::size_t(c)], 2);
    std::cout << "\n\n";
    mape_t.add_row({spec.label(), std::to_string(res.samples),
                    format_double(res.cv_mape, 2), format_double(res.cv_mape_linear, 2)});
  }
  std::cout << mape_t.str();
  std::cout << "\nPaper: MAPE < 5% for all datasets; the linear baseline (Groves et al.\n"
               "2017) is the related-work comparator. Pattern to match: stall counters\n"
               "(RT_RB_STL) for MILC and AMG-512, endpoint stalls (PT_RB_STL_RQ) for\n"
               "UMT and AMG, flit counters for miniVite.\n";
  return 0;
}
