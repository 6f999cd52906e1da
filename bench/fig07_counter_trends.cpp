// Figure 7: the mean per-step trends of counter values mirror the mean
// time-per-step trend (AMG 128 nodes: RT_FLIT_TOT and RT_RB_STL) — the
// motivation for mean-centering both sides before deviation modeling.
#include <iostream>

#include "bench_common.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace dfv;
  bench::print_header("Figure 7",
                      "Mean step-time trend vs. mean counter trends (AMG, 128 nodes)");
  const auto campaign = bench::load_campaign();
  const sim::Dataset& amg = campaign.dataset("AMG", 128);

  const auto time_curve = amg.mean_step_curve();
  const auto flit_curve = amg.mean_counter_curve(mon::Counter::RT_FLIT_TOT);
  const auto stall_curve = amg.mean_counter_curve(mon::Counter::RT_RB_STL);

  std::cout << line_plot({Series{"time/step", time_curve}},
                         {.width = 60, .height = 9,
                          .title = "Mean time per step (s)", .x_label = "step"})
            << "\n";
  std::cout << line_plot({Series{"RT_FLIT_TOT", flit_curve}},
                         {.width = 60, .height = 9,
                          .title = "Mean RT_FLIT_TOT per step", .x_label = "step"})
            << "\n";
  std::cout << line_plot({Series{"RT_RB_STL", stall_curve}},
                         {.width = 60, .height = 9,
                          .title = "Mean RT_RB_STL per step", .x_label = "step"})
            << "\n";

  Table t({"pair", "Pearson correlation of mean curves"});
  t.add_row({"time vs RT_FLIT_TOT", format_double(stats::pearson(time_curve, flit_curve), 3)});
  t.add_row({"time vs RT_RB_STL", format_double(stats::pearson(time_curve, stall_curve), 3)});
  std::cout << t.str();
  std::cout << "\nShape to match: all three mean curves share the same step-wise trend\n"
               "(high positive correlation), which is why the deviation analysis\n"
               "removes the per-step mean from both counters and times.\n";
  return 0;
}
