#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/table.hpp"

#include "common/log.hpp"
#include "exec/exec.hpp"

namespace dfv::bench {

sim::CampaignConfig paper_campaign_config() {
  // Cori-scale defaults: 34 groups, 120 days; campaign start Dec 3, 2018.
  return sim::CampaignConfig::cori().seed(20181203).build();
}

std::string cache_dir() {
  if (const char* env = std::getenv("DFV_CACHE_DIR"); env != nullptr && *env != '\0')
    return env;
#ifdef DFV_DEFAULT_CACHE_DIR
  return DFV_DEFAULT_CACHE_DIR;
#else
  return "dfv_cache";
#endif
}

sim::CampaignResult load_campaign() {
  set_log_level(LogLevel::Warn);
  (void)exec::configure_threads(0);  // size the pool from DFV_THREADS (or hardware)
  return sim::run_campaign_cached(paper_campaign_config(), cache_dir());
}

PhaseTimer::PhaseTimer(std::string phase)
    : phase_(std::move(phase)), start_(std::chrono::steady_clock::now()) {}

PhaseTimer::~PhaseTimer() {
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const int threads = exec::ThreadPool::instance().size();
  std::cerr << "[" << phase_ << "] wall-clock " << format_double(secs, 2) << " s on "
            << threads << " thread" << (threads == 1 ? "" : "s") << "\n";
}

void print_header(const std::string& experiment, const std::string& description) {
  std::cout << "==============================================================\n"
            << experiment << " — " << description << "\n"
            << "(reproduction of: Bhatele et al., \"The Case of Performance\n"
            << " Variability on Dragonfly-based Systems\", IPDPS 2020)\n"
            << "==============================================================\n\n";
}

void print_mpi_breakdown(const sim::Dataset& ds) {
  // Identify best / worst runs by total time; "average" aggregates all.
  std::size_t best = 0, worst = 0;
  for (std::size_t r = 1; r < ds.runs.size(); ++r) {
    if (ds.runs[r].total_time_s() < ds.runs[best].total_time_s()) best = r;
    if (ds.runs[r].total_time_s() > ds.runs[worst].total_time_s()) worst = r;
  }
  mon::MpiProfile avg;
  for (const auto& run : ds.runs) avg.add(run.profile);
  const double inv = 1.0 / double(ds.runs.size());

  std::cout << ds.spec.app << ", " << ds.spec.nodes << " nodes (" << ds.num_runs()
            << " runs)\n";
  Table split({"run", "Compute (s)", "MPI (s)", "MPI %"});
  auto add_split = [&split](const std::string& label, const mon::MpiProfile& p,
                            double scale) {
    split.add_row({label, format_double(p.compute_s * scale, 1),
                   format_double(p.mpi_s() * scale, 1),
                   format_double(100.0 * p.mpi_fraction(), 1)});
  };
  add_split("Best", ds.runs[best].profile, 1.0);
  add_split("Average", avg, inv);
  add_split("Worst", ds.runs[worst].profile, 1.0);
  std::cout << split.str();

  std::cout << "Time spent in MPI calls (seconds; best / average / worst run):\n";
  Table rt({"routine", "Best", "Average", "Worst"});
  // Order routines by the average profile, largest first.
  std::vector<int> order(mon::kNumRoutines);
  for (int i = 0; i < mon::kNumRoutines; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return avg.routine_s[std::size_t(a)] > avg.routine_s[std::size_t(b)];
  });
  for (int i : order) {
    const auto r = static_cast<mon::MpiRoutine>(i);
    if (avg.routine(r) * inv < 0.05) continue;  // skip negligible routines
    rt.add_row({mon::routine_name(r), format_double(ds.runs[best].profile.routine(r), 1),
                format_double(avg.routine(r) * inv, 1),
                format_double(ds.runs[worst].profile.routine(r), 1)});
  }
  std::cout << rt.str() << "\n";
}

}  // namespace dfv::bench
