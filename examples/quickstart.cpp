// Quickstart: build a small dragonfly cluster, run one instrumented MILC
// job with and without heavy background traffic, and inspect step times,
// the mpiP-style profile, and the Aries counter deltas.
//
//   ./quickstart [--seed N]
#include <cstdint>
#include <exception>
#include <iostream>

#include "apps/registry.hpp"
#include "common/ascii_plot.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/cluster.hpp"

using namespace dfv;

namespace {

void run(std::uint64_t seed) {
  // An 8-group dragonfly: 8 x (3x4 routers) x 4 nodes = 384 nodes.
  net::DragonflyConfig machine = net::DragonflyConfig::small(8);
  machine.nodes_per_router = 4;
  std::cout << net::Topology(machine).describe() << "\n";

  const auto milc = apps::make_milc(128);

  // --- Run 1: idle machine (no background users) ------------------------
  sim::Cluster quiet(machine, {}, /*users=*/{}, seed);
  const sim::RunRecord idle = quiet.run_app(*milc);

  // --- Run 2: machine shared with a heavy user population ---------------
  auto users = sched::default_user_population(/*quiet_users=*/6);
  for (auto& u : users) {  // scale job sizes to the small machine
    u.min_nodes = std::min(u.min_nodes, 64);
    u.max_nodes = std::min(u.max_nodes, 96);
  }
  sim::ClusterParams busy_params;
  busy_params.max_bg_utilization = 0.6;
  sim::Cluster busy(machine, busy_params, std::move(users), seed);
  busy.slurm().advance_to(12 * 3600.0);  // let the machine fill up
  const sim::RunRecord contended = busy.run_app(*milc);

  // --- Report -----------------------------------------------------------
  Table t({"run", "total (s)", "MPI %", "NUM_ROUTERS", "NUM_GROUPS"});
  t.add_row({"idle machine", format_double(idle.total_time_s(), 1),
             format_double(100.0 * idle.profile.mpi_fraction(), 1),
             std::to_string(idle.num_routers), std::to_string(idle.num_groups)});
  t.add_row({"contended machine", format_double(contended.total_time_s(), 1),
             format_double(100.0 * contended.profile.mpi_fraction(), 1),
             std::to_string(contended.num_routers), std::to_string(contended.num_groups)});
  std::cout << t.str() << "\n";
  std::cout << "slowdown from contention: "
            << format_double(contended.total_time_s() / idle.total_time_s(), 2)
            << "x\n\n";

  std::cout << line_plot({Series{"idle", idle.step_times},
                          Series{"contended", contended.step_times}},
                         {.width = 70,
                          .height = 12,
                          .title = "MILC time per step (s)",
                          .x_label = "step",
                          .y_from_zero = true});

  std::cout << "\nAries counter deltas, step 30 (per-job aggregate):\n";
  Table ct({"counter", "idle", "contended"});
  for (int c = 0; c < mon::kNumCounters; ++c) {
    ct.add_row({mon::counter_name(mon::counter_from_index(c)),
                format_sci(idle.step_counters[30][std::size_t(c)]),
                format_sci(contended.step_counters[30][std::size_t(c)])});
  }
  std::cout << ct.str();
}

}  // namespace

int main(int argc, char** argv) {
  cli::App app("quickstart", "one MILC job on an idle and on a contended small dragonfly");
  app.command("", "run MILC idle vs. contended and print its step times, profile and counters",
              {{"seed", cli::ArgType::Int, "7", "cluster and user-population seed (>= 0)"}},
              [](const cli::ParsedArgs& a) {
                const int seed = a.get_int("seed");
                if (seed < 0) {
                  std::cerr << "quickstart: --seed must be >= 0, got " << seed << "\n";
                  return 2;
                }
                run(std::uint64_t(seed));
                return 0;
              });
  try {
    return app.run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 1;
  }
}
