// Scheduler what-if: the paper's motivating use case for the analyses
// ("a resource manager can use such historical data to delay scheduling
// jobs that are communication-sensitive when certain other jobs are
// already running", §V-A; exploited further in the authors' future work).
//
// We (1) run a small campaign, (2) learn the blamed-user list via the
// neighborhood analysis, and (3) compare a victim app's run time when
// scheduled while a blamed user is active vs. delayed until it is not.
//
//   ./scheduler_whatif
#include <algorithm>
#include <iostream>

#include "analysis/neighborhood.hpp"
#include "common/table.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "sim/campaign.hpp"

using namespace dfv;

namespace {

bool blamed_user_active(const sim::Cluster& cluster, const std::vector<int>& blamed) {
  for (const auto& job : cluster.slurm().running_background()) {
    if (job.placement.num_nodes() < 256) continue;  // only large jobs matter
    if (std::find(blamed.begin(), blamed.end(), job.user_id) != blamed.end()) return true;
  }
  return false;
}

}  // namespace

int main() {
  set_log_level(LogLevel::Warn);
  sim::CampaignConfig cfg = sim::CampaignConfig::small(/*seed=*/5);
  cfg.days = 12;
  cfg.datasets = {{"MILC", 128}};
  const sim::CampaignResult campaign = sim::run_campaign(cfg);

  // Step 1+2: learn who to avoid from historical data.
  const auto blame = analysis::analyze_neighborhood(campaign.dataset("MILC", 128));
  const std::vector<int> blamed = analysis::blamed_users(blame, /*top_k=*/4);
  std::cout << "learned blamed users (top MI, negatively correlated):";
  for (int u : blamed) std::cout << " User-" << u;
  std::cout << "\n\n";

  // Step 3: schedule MILC jobs naively vs. congestion-aware, at Cori
  // scale where aggressor jobs are large enough to matter.
  const auto milc = apps::make_milc(128);
  auto make_cluster = [&](std::uint64_t seed) {
    sim::Cluster c(net::DragonflyConfig::cori(), {}, sched::default_user_population(24),
                   seed);
    c.slurm().advance_to(12 * 3600.0);
    return c;
  };

  std::vector<double> naive_times, aware_times;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed = 1000 + std::uint64_t(i);
    {
      sim::Cluster c = make_cluster(seed);
      naive_times.push_back(c.run_app(*milc).total_time_s());
    }
    {
      sim::Cluster c = make_cluster(seed);
      // Congestion-aware: delay up to 12h in 30-minute slots until no
      // blamed user is running a large job.
      for (int slot = 0; slot < 24 && blamed_user_active(c, blamed); ++slot) {
        c.slurm().advance_to(c.slurm().now() + 1800.0);
        c.slurm().step_intensities(1800.0);
        c.invalidate_background();
      }
      aware_times.push_back(c.run_app(*milc).total_time_s());
    }
  }

  const double naive_mean = stats::mean(naive_times);
  const double aware_mean = stats::mean(aware_times);
  Table t({"policy", "mean MILC time (s)", "p90 (s)"});
  t.add_row({"schedule immediately", format_double(naive_mean, 1),
             format_double(stats::percentile(naive_times, 0.9), 1)});
  t.add_row({"delay while blamed user active", format_double(aware_mean, 1),
             format_double(stats::percentile(aware_times, 0.9), 1)});
  std::cout << t.str();
  std::cout << "\nmean speedup from congestion-aware scheduling: "
            << format_double(naive_mean / aware_mean, 2) << "x\n";
  return 0;
}
