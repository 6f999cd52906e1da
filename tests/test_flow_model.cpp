#include "net/flow_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common/check.hpp"
#include "common/integrity.hpp"
#include "exec/exec.hpp"
#include "sched/allocator.hpp"
#include "sched/placement.hpp"
#include "sched/workload.hpp"

namespace dfv::net {
namespace {

class FlowModelTest : public ::testing::Test {
 protected:
  FlowModelTest() : topo_(DragonflyConfig::small(4)), model_(topo_) {
    bg_.resize(topo_);
  }
  Topology topo_;
  FlowModel model_;
  RateLoads bg_;
  Rng rng_{55};
};

TEST(StallFraction, ShapeProperties) {
  EXPECT_DOUBLE_EQ(stall_fraction(0.0), 0.0);
  EXPECT_LT(stall_fraction(0.1), 1e-9);  // below threshold: no stalls
  EXPECT_LT(stall_fraction(0.3), 0.1);
  // Monotone non-decreasing.
  double prev = 0.0;
  for (double u = 0.0; u <= 2.0; u += 0.01) {
    const double s = stall_fraction(u);
    EXPECT_GE(s, prev - 1e-12) << "u=" << u;
    prev = s;
  }
  // Clamped for absurd overload.
  EXPECT_LE(stall_fraction(50.0), 6.0);
}

TEST_F(FlowModelTest, BackgroundRoutingConservesInjectedRates) {
  const std::vector<Demand> demands = {{0, 20, 1e9}, {5, 40, 2e9}};
  RateLoads out;
  out.resize(topo_);
  model_.route_background(demands, RoutingPolicy::Minimal, 1.0, rng_, out);
  EXPECT_DOUBLE_EQ(out.inject_rate[0], 1e9);
  EXPECT_DOUBLE_EQ(out.inject_rate[5], 2e9);
  EXPECT_DOUBLE_EQ(out.eject_rate[20], 1e9);
  EXPECT_DOUBLE_EQ(out.eject_rate[40], 2e9);
  // Link rates sum to demand rate times hop count (1..5 hops per chunk).
  double total_link = 0.0;
  for (double v : out.link_rate) total_link += v;
  EXPECT_GE(total_link, 3e9 * 1);
  EXPECT_LE(total_link, 3e9 * 5 + 1e-3);
}

TEST_F(FlowModelTest, SameRouterDemandTouchesOnlyEndpoints) {
  const std::vector<Demand> demands = {{7, 7, 5e8}};
  RateLoads out;
  out.resize(topo_);
  model_.route_background(demands, RoutingPolicy::Minimal, 1.0, rng_, out);
  for (double v : out.link_rate) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(out.inject_rate[7], 5e8);
  EXPECT_DOUBLE_EQ(out.eject_rate[7], 5e8);
}

TEST_F(FlowModelTest, TransferRatesRespectCapacity) {
  // Many flows from one router: the endpoint (16 GB/s) is the bottleneck.
  std::vector<Demand> demands;
  for (int i = 1; i <= 8; ++i) demands.push_back({0, RouterId(i), 100e6});
  const TransferResult res = model_.transfer(demands, RoutingPolicy::Ugal, bg_, rng_);
  double total_rate = 0.0;
  for (const auto& m : res.messages) {
    EXPECT_GT(m.rate, 0.0);
    total_rate += m.rate;
  }
  // All flows share router 0's injection: aggregate within endpoint bw.
  EXPECT_LE(total_rate, topo_.config().endpoint_bw * 1.01);
}

TEST_F(FlowModelTest, MakespanIsMaxMessageTime) {
  const std::vector<Demand> demands = {{0, 10, 1e6}, {1, 11, 64e6}};
  const TransferResult res = model_.transfer(demands, RoutingPolicy::Ugal, bg_, rng_);
  double mx = 0.0;
  for (const auto& m : res.messages) mx = std::max(mx, m.time);
  EXPECT_DOUBLE_EQ(res.makespan, mx);
  EXPECT_GT(res.messages[1].time, res.messages[0].time);
}

TEST_F(FlowModelTest, BackgroundLoadSlowsTransfers) {
  const std::vector<Demand> demands = {{0, topo_.router_at(2, 1, 1), 64e6}};
  const double idle_time =
      model_.transfer(demands, RoutingPolicy::Minimal, bg_, rng_).makespan;

  // Saturate everything.
  RateLoads heavy;
  heavy.resize(topo_);
  for (int e = 0; e < topo_.num_links(); ++e)
    heavy.link_rate[std::size_t(e)] = topo_.link(LinkId(e)).capacity * 0.9;
  const double busy_time =
      model_.transfer(demands, RoutingPolicy::Minimal, heavy, rng_).makespan;
  EXPECT_GT(busy_time, idle_time * 2.0);
}

TEST_F(FlowModelTest, ByteAccountingMatchesDemands) {
  const std::vector<Demand> demands = {{0, 10, 32e6}, {3, 17, 8e6}};
  ByteLoads ours;
  ours.resize(topo_);
  (void)model_.transfer(demands, RoutingPolicy::Ugal, bg_, rng_, &ours);
  EXPECT_DOUBLE_EQ(ours.inject_bytes[0], 32e6);
  EXPECT_DOUBLE_EQ(ours.inject_bytes[3], 8e6);
  EXPECT_DOUBLE_EQ(ours.eject_bytes[10], 32e6);
  EXPECT_DOUBLE_EQ(ours.eject_bytes[17], 8e6);
  double total_link_bytes = 0.0;
  for (double v : ours.link_bytes) total_link_bytes += v;
  EXPECT_GE(total_link_bytes, 40e6);  // at least one hop each
}

// clear() zeroes only the links add_link() recorded; that must be every
// link a step wrote, through transfer() or directly, zero-byte adds and
// repeated adds included, and the loads must clear again after reuse.
TEST_F(FlowModelTest, ByteLoadsClearAfterAddLinkLeavesEveryEntryZero) {
  ByteLoads ours;
  ours.resize(topo_);
  const auto all_zero = [&ours] {
    for (const auto* v : {&ours.link_bytes, &ours.inject_bytes, &ours.eject_bytes})
      for (double x : *v)
        if (x != 0.0) return false;
    return true;
  };
  std::vector<Demand> demands;
  Rng pick(3);
  const auto R = std::uint64_t(topo_.config().num_routers());
  for (int i = 0; i < 300; ++i)
    demands.push_back({RouterId(pick.uniform_index(R)), RouterId(pick.uniform_index(R)),
                       pick.uniform(1e3, 4e6)});
  for (int round = 0; round < 3; ++round) {
    (void)model_.transfer(demands, RoutingPolicy::Ugal, bg_, rng_, &ours);
    ours.add_link(LinkId(0), 0.0);
    ours.add_link(LinkId(0), 5.0);
    ours.add_link(LinkId(topo_.num_links() - 1), 7.0);
    ours.add_link(LinkId(topo_.num_links() - 1), 7.0);
    EXPECT_FALSE(all_zero());
    ours.clear();
    EXPECT_TRUE(all_zero()) << "round " << round;
    EXPECT_TRUE(ours.touched_links.empty());
  }
}

// The links route_background reports are exactly those it raised from 0.
TEST_F(FlowModelTest, BackgroundRouteReportsTheLinksItRaisedFromZero) {
  std::vector<Demand> demands;
  Rng pick(4);
  const auto R = std::uint64_t(topo_.config().num_routers());
  for (int i = 0; i < 700; ++i)
    demands.push_back({RouterId(pick.uniform_index(R)), RouterId(pick.uniform_index(R)),
                       pick.uniform(1e3, 4e6)});
  RateLoads out;
  out.resize(topo_);
  out.link_rate[3] = 1.0;  // already loaded: not reported
  std::vector<LinkId> touched;
  model_.route_background(demands, RoutingPolicy::Ugal, 1.0, rng_, out, &touched);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(std::adjacent_find(touched.begin(), touched.end()), touched.end());
  std::vector<LinkId> loaded;
  for (std::size_t e = 0; e < out.link_rate.size(); ++e)
    if (out.link_rate[e] != 0.0 && e != 3) loaded.push_back(LinkId(e));
  EXPECT_EQ(touched, loaded);
  EXPECT_GT(loaded.size(), 100u);
}

TEST_F(FlowModelTest, EmptyTransferIsWellDefined) {
  const TransferResult res = model_.transfer({}, RoutingPolicy::Ugal, bg_, rng_);
  EXPECT_EQ(res.messages.size(), 0u);
  EXPECT_DOUBLE_EQ(res.makespan, 0.0);
}

TEST_F(FlowModelTest, ZeroByteMessagesAreIgnored) {
  const std::vector<Demand> demands = {{0, 10, 0.0}};
  const TransferResult res = model_.transfer(demands, RoutingPolicy::Ugal, bg_, rng_);
  EXPECT_DOUBLE_EQ(res.messages[0].time, 0.0);
}

TEST_F(FlowModelTest, CongestionFactorBaselineAndMonotonicity) {
  std::vector<RouterId> routers = {0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(model_.congestion_factor(routers, bg_), 1.0);

  RateLoads mild, heavy;
  mild.resize(topo_);
  heavy.resize(topo_);
  for (int e = 0; e < topo_.num_links(); ++e) {
    mild.link_rate[std::size_t(e)] = topo_.link(LinkId(e)).capacity * 0.3;
    heavy.link_rate[std::size_t(e)] = topo_.link(LinkId(e)).capacity * 0.9;
  }
  const double f_mild = model_.congestion_factor(routers, mild);
  const double f_heavy = model_.congestion_factor(routers, heavy);
  EXPECT_GT(f_mild, 1.0);
  EXPECT_GT(f_heavy, f_mild);
}

TEST_F(FlowModelTest, FairnessBetweenIdenticalFlows) {
  // Two identical flows sharing one bottleneck get (nearly) equal rates.
  const RouterId dst = topo_.router_at(1, 0, 0);
  const std::vector<Demand> demands = {{0, dst, 50e6}, {0, dst, 50e6}};
  const TransferResult res = model_.transfer(demands, RoutingPolicy::Minimal, bg_, rng_);
  const double r0 = res.messages[0].rate, r1 = res.messages[1].rate;
  EXPECT_NEAR(r0 / r1, 1.0, 0.75);  // chunk paths differ, rates same order
}

/// FNV-1a over the bit patterns of a value sequence.
struct BitHash {
  std::uint64_t h = kFnvBasis;
  void add(double v) {
    const auto u = std::bit_cast<std::uint64_t>(v);
    h = fnv1a64_update(h, &u, sizeof u);
  }
  void add(std::int64_t v) { h = fnv1a64_update(h, &v, sizeof v); }
  void add(const std::vector<double>& vs) {
    for (double v : vs) add(v);
  }
};

/// Hash of one transfer: every message's path links, rate and time, the
/// makespan, and the job byte totals the call accumulated.
std::uint64_t transfer_hash(const FlowModel& flow, std::span<const Demand> demands,
                            const RateLoads& bg) {
  ByteLoads ours;
  ours.resize(flow.topology());
  Rng rng(4);
  const TransferResult res = flow.transfer(demands, RoutingPolicy::Ugal, bg, rng, &ours);
  EXPECT_EQ(res.messages.size(), demands.size());
  BitHash h;
  for (const RoutedMessage& m : res.messages) {
    h.add(std::int64_t(m.path.hops()));
    for (LinkId id : m.path.links) h.add(std::int64_t(id));
    h.add(m.rate);
    h.add(m.time);
  }
  h.add(res.makespan);
  h.add(ours.link_bytes);
  h.add(ours.inject_bytes);
  h.add(ours.eject_bytes);
  return h.h;
}

/// Hash of routed background load: link, inject and eject rates.
std::uint64_t load_hash(const RateLoads& loads) {
  BitHash h;
  h.add(loads.link_rate);
  h.add(loads.inject_rate);
  h.add(loads.eject_rate);
  return h.h;
}

/// Pool widths the golden cases run at: serial, even splits, and 3, which
/// splits a region's tasks unevenly across lanes.
constexpr int kWidths[] = {1, 2, 3, 8};

// The simulator's output pinned across commits, not just across thread
// counts: the MILC-128 phase of BM_FlowTransferMilcStep on Cori, against
// an idle machine and against a fixed routed background. A refactor of
// routing or of the max-min solve must leave every bit of these hashes
// unchanged; the idle phase's many tied shares make it sensitive to the
// solve's freeze order. Each width runs the same sample-ahead regions with
// another split of their tasks across lanes.
TEST_F(FlowModelTest, GoldenTransfer) {
  const Topology topo(DragonflyConfig::cori());
  const FlowModel flow(topo);

  sched::NodeAllocator alloc(topo);
  Rng rng(3);
  const auto placement =
      sched::make_placement(alloc.allocate(128, sched::AllocPolicy::Clustered, rng), topo);
  const auto milc = apps::make_milc(128);
  const auto spec = milc->step(40, placement, topo, rng);
  ASSERT_FALSE(spec.phases.empty());
  const std::vector<Demand>& demands = spec.phases[0].demands;

  // Uniform-pairs background over the job's own routers, so it loads the
  // endpoints and links the phase competes for.
  sched::TrafficSpec traffic;
  traffic.net_bytes_per_node_per_s = 2e9;
  Rng bg_rng(5);
  const auto bg_demands =
      sched::generate_background_demands(placement, traffic, {}, topo, bg_rng);

  for (const int width : kWidths) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    exec::ThreadPool::instance().resize(width);
    RateLoads idle;
    idle.resize(topo);
    EXPECT_EQ(transfer_hash(flow, demands, idle), 0x4449b43cb2ffb089ull);

    RateLoads bg;
    bg.resize(topo);
    Rng route_rng(6);
    flow.route_background(bg_demands, RoutingPolicy::Ugal, 1.0, route_rng, bg);
    EXPECT_EQ(load_hash(bg), 0x01eb65a70700eff1ull);
    EXPECT_EQ(transfer_hash(flow, demands, bg), 0x337d27efd1e50f6dull);
  }
  exec::ThreadPool::instance().resize(exec::resolve_threads());
}

// Background routing over more than two sample blocks (a 2048-node job's
// uniform pairs), so middle regions pick and apply one block while they
// draw the next: the load is pinned across commits and equal at pool
// widths 1 and 8.
TEST_F(FlowModelTest, GoldenBackgroundManyBlocks) {
  const Topology topo(DragonflyConfig::cori());
  const FlowModel flow(topo);
  sched::NodeAllocator alloc(topo);
  Rng rng(5);
  const auto placement =
      sched::make_placement(alloc.allocate(2048, sched::AllocPolicy::Clustered, rng), topo);
  sched::TrafficSpec traffic;
  traffic.net_bytes_per_node_per_s = 1e9;
  const auto demands = sched::generate_background_demands(placement, traffic, {}, topo, rng);
  ASSERT_GT(demands.size(), 1024u);  // at least three blocks of 512

  for (const int width : {1, 8}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    exec::ThreadPool::instance().resize(width);
    RateLoads out;
    out.resize(topo);
    Rng route_rng(6);
    flow.route_background(demands, RoutingPolicy::Ugal, 1.0, route_rng, out);
    EXPECT_EQ(load_hash(out), 0xaaccf138a674d942ull);
  }
  exec::ThreadPool::instance().resize(exec::resolve_threads());
}

TEST_F(FlowModelTest, ParamValidation) {
  FlowModelParams bad;
  bad.capacity_headroom = 0.0;
  EXPECT_THROW(FlowModel(topo_, bad), ContractError);
  FlowModelParams bad2;
  bad2.max_chunks = 0;
  EXPECT_THROW(FlowModel(topo_, bad2), ContractError);
}

}  // namespace
}  // namespace dfv::net
