#include "mon/ldms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "apps/registry.hpp"
#include "common/integrity.hpp"
#include "exec/exec.hpp"
#include "sched/allocator.hpp"
#include "sched/placement.hpp"
#include "sched/workload.hpp"

namespace dfv::mon {
namespace {

class LdmsTest : public ::testing::Test {
 protected:
  LdmsTest()
      : topo_(net::DragonflyConfig::small(4)),
        model_(topo_),
        sampler_(model_, make_default_io_routers(topo_, 1)) {
    bg_.resize(topo_);
    job_.resize(topo_);
  }
  net::Topology topo_;
  CounterModel model_;
  LdmsSampler sampler_;
  net::RateLoads bg_;
  net::ByteLoads job_;
};

TEST_F(LdmsTest, DefaultIoRoutersOnePerGroup) {
  const auto io = make_default_io_routers(topo_, 1);
  EXPECT_EQ(io.size(), std::size_t(topo_.config().groups));
  std::vector<net::GroupId> groups;
  for (auto r : io) groups.push_back(topo_.group_of(r));
  std::sort(groups.begin(), groups.end());
  EXPECT_EQ(std::unique(groups.begin(), groups.end()) - groups.begin(),
            topo_.config().groups);
}

TEST_F(LdmsTest, MultipleIoRoutersPerGroupDistinct) {
  const auto io = make_default_io_routers(topo_, 3);
  EXPECT_EQ(io.size(), std::size_t(3 * topo_.config().groups));
}

TEST_F(LdmsTest, ZeroTrafficZeroFeatures) {
  const LdmsFeatures f = sampler_.sample(bg_, job_, 1.0, {});
  for (double v : f.io) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : f.sys) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST_F(LdmsTest, IoAggregateSeesIoRouterTraffic) {
  const net::RouterId io_router = sampler_.io_routers().front();
  bg_.inject_rate[std::size_t(io_router)] = 1e9;
  const LdmsFeatures f = sampler_.sample(bg_, job_, 1.0, {});
  EXPECT_GT(f.io[2], 0.0);  // IO_PT_FLIT_TOT
  EXPECT_GT(f.io[3], 0.0);  // IO_PT_PKT_TOT
}

TEST_F(LdmsTest, SysAggregateExcludesJobRouters) {
  // Traffic injected only at the job's router must not appear in sys.
  const net::RouterId job_router = 5;
  ASSERT_EQ(std::count(sampler_.io_routers().begin(), sampler_.io_routers().end(),
                       job_router),
            0);
  job_.inject_bytes[std::size_t(job_router)] = 64e6;
  const std::vector<net::RouterId> job_routers = {job_router};

  const LdmsFeatures with_exclusion = sampler_.sample(bg_, job_, 1.0, job_routers);
  const LdmsFeatures without = sampler_.sample(bg_, job_, 1.0, {});
  EXPECT_NEAR(with_exclusion.sys[2], 0.0, 1e-6);
  EXPECT_GT(without.sys[2], 0.0);
}

TEST_F(LdmsTest, SysSeesRemoteTraffic) {
  // Traffic on a router that is neither ours nor I/O shows up in sys.
  net::RouterId remote = 9;
  while (std::count(sampler_.io_routers().begin(), sampler_.io_routers().end(), remote))
    ++remote;
  bg_.inject_rate[std::size_t(remote)] = 2e9;
  const std::vector<net::RouterId> job_routers = {0};
  const LdmsFeatures f = sampler_.sample(bg_, job_, 1.0, job_routers);
  EXPECT_GT(f.sys[2], 0.0);
  EXPECT_NEAR(f.sys[3], f.sys[2] / topo_.config().flits_per_packet, 1e-6);
}

TEST_F(LdmsTest, LinkStallsCountedSystemWide) {
  // Saturate one link not adjacent to the job: SYS_RT_RB_STL > 0.
  const net::LinkId e = topo_.green_link(2, 1, 0, 1);
  bg_.link_rate[std::size_t(e)] = topo_.link(e).capacity * 1.1;
  const std::vector<net::RouterId> job_routers = {0};
  const LdmsFeatures f = sampler_.sample(bg_, job_, 1.0, job_routers);
  EXPECT_GT(f.sys[1], 0.0);  // SYS_RT_RB_STL
  EXPECT_GT(f.sys[0], 0.0);  // SYS_RT_FLIT_TOT
}

/// FNV-1a over the bit patterns of a sequence of doubles.
std::uint64_t bit_hash(std::span<const double> vs, std::uint64_t h = kFnvBasis) {
  for (double v : vs) {
    const auto u = std::bit_cast<std::uint64_t>(v);
    h = fnv1a64_update(h, &u, sizeof u);
  }
  return h;
}

// The LDMS aggregates and the per-job counter sum pinned across commits on
// Cori: a routed background around a 512-node job plus one MILC-128 phase
// of an instrumented job, sampled over two interval lengths. Background
// and job traffic overlap, so the sampled links sit on both sides of
// stall_fraction's 0.15 knee (checked below); a change to the link pass
// that moves a bit anywhere moves these hashes. The whole case runs at
// pool widths 1, 2, 3 and 8: the sample's one region splits its four
// reductions' tasks differently across lanes at each, unevenly at 3.
TEST(Ldms, GoldenSampleCori) {
  const net::Topology topo(net::DragonflyConfig::cori());
  const CounterModel model(topo);
  const LdmsSampler sampler(model, make_default_io_routers(topo, 1));

  for (const int width : {1, 2, 3, 8}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    exec::ThreadPool::instance().resize(width);
    sched::NodeAllocator alloc(topo);
    Rng rng(11);
    const auto bg_place =
        sched::make_placement(alloc.allocate(512, sched::AllocPolicy::Clustered, rng), topo);
    const auto job_place =
        sched::make_placement(alloc.allocate(128, sched::AllocPolicy::Clustered, rng), topo);

    sched::TrafficSpec traffic;
    traffic.net_bytes_per_node_per_s = 1.5e9;
    traffic.io_bytes_per_node_per_s = 0.2e9;
    const auto bg_demands = sched::generate_background_demands(
        bg_place, traffic, sampler.io_routers(), topo, rng);
    const net::FlowModel flow(topo);
    net::RateLoads bg;
    bg.resize(topo);
    flow.route_background(bg_demands, net::RoutingPolicy::Ugal, 1.0, rng, bg);

    const auto milc = apps::make_milc(128);
    const auto spec = milc->step(40, job_place, topo, rng);
    net::ByteLoads job;
    job.resize(topo);
    (void)flow.transfer(spec.phases[0].demands, net::RoutingPolicy::Ugal, bg, rng, &job);

    std::vector<std::uint64_t> hashes;
    for (const double dt : {0.5, 2.0}) {
      int below = 0, above = 0;
      for (int e = 0; e < topo.num_links(); ++e) {
        const double u = model.link_utilization(net::LinkId(e), bg, job, dt);
        if (u > 0.0 && u < 0.14) ++below;
        if (u > 0.15) ++above;
      }
      EXPECT_GT(below, 1000) << "dt " << dt;
      EXPECT_GT(above, 100) << "dt " << dt;

      const LdmsFeatures f = sampler.sample(bg, job, dt, job_place.routers);
      const CounterVec agg = model.aggregate(job_place.routers, bg, job, dt);
      hashes.push_back(bit_hash(agg, bit_hash(f.sys, bit_hash(f.io))));
    }
    EXPECT_EQ(hashes[0], 0x92c1f6ca2e4a79f6ull);
    EXPECT_EQ(hashes[1], 0x79febe0c3cac31d5ull);
  }
  exec::ThreadPool::instance().resize(exec::resolve_threads());
}

}  // namespace
}  // namespace dfv::mon
