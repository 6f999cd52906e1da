// Figure 5: compute/MPI split and routine breakdown for miniVite and UMT
// on 128 nodes. Paper: miniVite >98% MPI, almost all in Waitall, slowest
// run 3.76x the best; UMT only ~30% MPI (Allreduce, Barrier, Wait) yet
// the slowest run is 3.3x the best.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"

int main() {
  using namespace dfv;
  bench::print_header(
      "Figure 5", "Compute/MPI split and MPI routine breakdown: miniVite & UMT, 128 nodes");
  const auto campaign = bench::load_campaign();
  bench::print_mpi_breakdown(campaign.dataset("miniVite", 128));
  bench::print_mpi_breakdown(campaign.dataset("UMT", 128));

  // The worst/best ratios the paper calls out.
  Table t({"dataset", "worst / best total time", "paper"});
  for (const char* app : {"miniVite", "UMT"}) {
    const auto& ds = campaign.dataset(app, 128);
    double best = 1e300, worst = 0.0;
    for (const auto& run : ds.runs) {
      best = std::min(best, run.total_time_s());
      worst = std::max(worst, run.total_time_s());
    }
    t.add_row({app, format_double(worst / best, 2) + "x",
               std::string(app) == "miniVite" ? "3.76x" : "3.3x"});
  }
  std::cout << t.str();
  return 0;
}
