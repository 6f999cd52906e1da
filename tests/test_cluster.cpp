#include "sim/cluster.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "apps/registry.hpp"
#include "common/stats.hpp"

namespace dfv::sim {
namespace {

net::DragonflyConfig small_machine() {
  net::DragonflyConfig m = net::DragonflyConfig::small(8);
  m.nodes_per_router = 4;  // 384 nodes
  return m;
}

std::vector<sched::UserArchetype> small_population() {
  auto users = sched::default_user_population(4);
  for (auto& u : users) {
    u.min_nodes = std::min(u.min_nodes, 48);
    u.max_nodes = std::min(u.max_nodes, 96);
  }
  return users;
}

ClusterParams capped_params() {
  ClusterParams p;
  p.max_bg_utilization = 0.6;
  return p;
}

TEST(Cluster, RunRecordShapesMatchApp) {
  Cluster cluster(small_machine(), {}, {}, 3);
  const auto milc = apps::make_milc(128);
  const RunRecord rec = cluster.run_app(*milc);
  EXPECT_EQ(rec.steps(), 80);
  EXPECT_EQ(rec.step_counters.size(), 80u);
  EXPECT_EQ(rec.step_ldms.size(), 80u);
  EXPECT_GT(rec.num_routers, 0);
  EXPECT_GE(rec.num_routers, rec.num_groups);
  EXPECT_GT(rec.total_time_s(), 0.0);
  EXPECT_GT(rec.end_time_s, rec.start_time_s);
  // Run duration equals the sum of step times.
  EXPECT_NEAR(rec.end_time_s - rec.start_time_s, rec.total_time_s(), 1e-6);
}

TEST(Cluster, CountersNonZeroDuringRun) {
  Cluster cluster(small_machine(), {}, {}, 3);
  const auto milc = apps::make_milc(128);
  const RunRecord rec = cluster.run_app(*milc);
  // Flit counters reflect the app's own traffic even on an idle machine.
  EXPECT_GT(rec.step_counters[40][size_t(mon::Counter::RT_FLIT_TOT)], 0.0);
  EXPECT_GT(rec.step_counters[40][size_t(mon::Counter::PT_FLIT_TOT)], 0.0);
}

TEST(Cluster, MpiProfileConsistentWithRunTime) {
  Cluster cluster(small_machine(), {}, {}, 4);
  const auto umt = apps::make_umt(128);
  const RunRecord rec = cluster.run_app(*umt);
  EXPECT_NEAR(rec.profile.total_s(), rec.total_time_s(), rec.total_time_s() * 0.01);
  // UMT is compute-dominated (~30% MPI).
  EXPECT_LT(rec.profile.mpi_fraction(), 0.5);
  EXPECT_GT(rec.profile.routine(mon::MpiRoutine::Barrier), 0.0);
}

TEST(Cluster, ContentionSlowsRunsAndRaisesCounters) {
  const std::uint64_t seed = 9;
  const auto milc = apps::make_milc(128);

  Cluster idle(small_machine(), {}, {}, seed);
  const RunRecord quiet = idle.run_app(*milc);

  Cluster busy(small_machine(), capped_params(), small_population(), seed);
  busy.slurm().advance_to(12 * 3600.0);
  const RunRecord contended = busy.run_app(*milc);

  EXPECT_GT(contended.total_time_s(), quiet.total_time_s());
  // Counter deltas integrate background traffic: router-tile flits grow.
  const double quiet_flits =
      stats::mean(quiet.step_times) > 0
          ? quiet.step_counters[40][size_t(mon::Counter::RT_FLIT_TOT)]
          : 0;
  const double busy_flits =
      contended.step_counters[40][size_t(mon::Counter::RT_FLIT_TOT)];
  EXPECT_GT(busy_flits, quiet_flits);
}

TEST(Cluster, DeterministicGivenSeed) {
  const auto amg = apps::make_amg(128);
  Cluster a(small_machine(), capped_params(), small_population(), 21);
  Cluster b(small_machine(), capped_params(), small_population(), 21);
  a.slurm().advance_to(3600.0);
  b.slurm().advance_to(3600.0);
  const RunRecord ra = a.run_app(*amg);
  const RunRecord rb = b.run_app(*amg);
  ASSERT_EQ(ra.steps(), rb.steps());
  for (int t = 0; t < ra.steps(); ++t)
    EXPECT_DOUBLE_EQ(ra.step_times[std::size_t(t)], rb.step_times[std::size_t(t)]);
}

TEST(Cluster, CongestionViewBaseline) {
  Cluster cluster(small_machine(), {}, {}, 5);
  const std::vector<net::RouterId> routers = {0, 1, 2};
  const CongestionView v = cluster.congestion(routers);
  EXPECT_DOUBLE_EQ(v.pt_stall, 0.0);
  EXPECT_DOUBLE_EQ(v.transit, 1.0);
}

TEST(Cluster, BackgroundLoadsRefreshOnJobChurn) {
  Cluster cluster(small_machine(), capped_params(), small_population(), 6);
  cluster.slurm().advance_to(6 * 3600.0);
  const net::RateLoads& loads = cluster.background_loads();
  double total = 0.0;
  for (double v : loads.link_rate) total += v;
  EXPECT_GT(total, 0.0);
}

// Each step is measured on idle lanes while the next one routes. The
// records must equal measuring each step synchronously, after its routing,
// bit for bit, at any pool width: two runs cover the buffers used in turn
// across a run boundary and background refreshes between steps.
TEST(Cluster, DeferredMeasurementMatchesSynchronousAtAnyWidth) {
  const auto milc = apps::make_milc(128);
  const auto amg = apps::make_amg(128);
  const auto runs = [&](int threads, bool synchronous) {
    exec::ThreadPool::instance().resize(threads);
    Cluster cluster(small_machine(), capped_params(), small_population(), 31);
    cluster.set_synchronous_measurement(synchronous);
    cluster.slurm().advance_to(6 * 3600.0);
    std::vector<RunRecord> out;
    out.push_back(cluster.run_app(*milc));
    cluster.slurm().advance_to(cluster.slurm().now() + 1800.0);
    out.push_back(cluster.run_app(*amg));
    return out;
  };
  const auto bits = [](const std::vector<RunRecord>& recs) {
    std::vector<std::uint64_t> b;
    const auto put = [&b](double v) { b.push_back(std::bit_cast<std::uint64_t>(v)); };
    for (const RunRecord& r : recs) {
      put(r.start_time_s);
      put(r.end_time_s);
      b.push_back(r.step_times.size());
      b.push_back(r.step_counters.size());
      b.push_back(r.step_ldms.size());
      for (double v : r.step_times) put(v);
      for (const auto& ctr : r.step_counters)
        for (double v : ctr) put(v);
      for (const auto& l : r.step_ldms) {
        for (double v : l.io) put(v);
        for (double v : l.sys) put(v);
      }
    }
    return b;
  };
  const std::vector<std::uint64_t> reference = bits(runs(1, true));
  EXPECT_EQ(bits(runs(4, true)), reference);
  for (int threads : {1, 2, 8}) EXPECT_EQ(bits(runs(threads, false)), reference) << threads;
  exec::ThreadPool::instance().resize(exec::resolve_threads());
}

TEST(Cluster, ThrowsWhenJobCannotBePlaced) {
  // 2-group machine with 48 nodes total cannot host 128 nodes.
  net::DragonflyConfig tiny = net::DragonflyConfig::small(2);
  Cluster cluster(tiny, {}, {}, 7);
  const auto milc = apps::make_milc(128);
  EXPECT_THROW((void)cluster.run_app(*milc, sched::kCampaignUserId, 1800.0),
               ContractError);
}

}  // namespace
}  // namespace dfv::sim
