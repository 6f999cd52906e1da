// Figure 3: mean time-per-step behavior of each application across all
// runs: AMG 128/512 (20 steps), MILC 128/512 (80 steps, first 20 fast
// warmup), UMT (7 rising steps) and miniVite (6 declining steps).
#include <iostream>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "common/ascii_plot.hpp"
#include "common/table.hpp"

int main() {
  using namespace dfv;
  bench::print_header("Figure 3", "Mean time per step behavior of each application");
  const auto campaign = bench::load_campaign();

  std::cout << line_plot({Series{"AMG 128", campaign.dataset("AMG", 128).mean_step_curve()},
                          Series{"AMG 512", campaign.dataset("AMG", 512).mean_step_curve()}},
                         {.width = 70,
                          .height = 12,
                          .title = "AMG: mean time per step (s)",
                          .x_label = "step",
                          .y_from_zero = true})
            << "\n";

  std::cout << line_plot(
                   {Series{"MILC 128", campaign.dataset("MILC", 128).mean_step_curve()},
                    Series{"MILC 512", campaign.dataset("MILC", 512).mean_step_curve()}},
                   {.width = 70,
                    .height = 12,
                    .title = "MILC: mean time per step (s) — first 20 steps are warmup",
                    .x_label = "step",
                    .y_from_zero = true})
            << "\n";

  std::cout << line_plot({Series{"UMT 128", campaign.dataset("UMT", 128).mean_step_curve()}},
                         {.width = 40,
                          .height = 10,
                          .title = "UMT: mean time per step (s)",
                          .x_label = "step",
                          .y_from_zero = true})
            << "\n";
  std::cout << line_plot(
                   {Series{"miniVite 128", campaign.dataset("miniVite", 128).mean_step_curve()}},
                   {.width = 40,
                    .height = 10,
                    .title = "miniVite: mean time per step (s)",
                    .x_label = "step",
                    .y_from_zero = true})
            << "\n";

  // Numeric summary of the shapes the paper reports.
  Table t({"dataset", "steps", "first-step mean (s)", "last-step mean (s)"});
  for (const auto& spec : apps::paper_datasets()) {
    const auto curve = campaign.dataset(spec.app, spec.nodes).mean_step_curve();
    t.add_row({spec.label(), std::to_string(curve.size()), format_double(curve.front(), 2),
               format_double(curve.back(), 2)});
  }
  std::cout << t.str();
  std::cout << "\nShapes to match: AMG flat-ish; MILC warmup ~3.5x faster than steady\n"
               "steps; UMT rising; miniVite declining.\n";
  return 0;
}
