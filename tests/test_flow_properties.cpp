// Property sweeps over the flow-level engine: conservation, fairness,
// and monotonicity must hold for every routing policy and several
// machine scales (TEST_P grid).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "net/flow_model.hpp"

namespace dfv::net {
namespace {

using Param = std::tuple<int /*groups*/, RoutingPolicy>;

class FlowProperties : public ::testing::TestWithParam<Param> {
 protected:
  FlowProperties()
      : topo_(DragonflyConfig::small(std::get<0>(GetParam()))),
        model_(topo_),
        policy_(std::get<1>(GetParam())) {
    bg_.resize(topo_);
  }

  std::vector<Demand> random_demands(int n, double bytes, Rng& rng) const {
    std::vector<Demand> ds;
    const int R = topo_.config().num_routers();
    for (int i = 0; i < n; ++i) {
      const auto src = RouterId(rng.uniform_index(R));
      auto dst = RouterId(rng.uniform_index(R));
      if (dst == src) dst = RouterId((dst + 1) % R);
      ds.push_back({src, dst, bytes});
    }
    return ds;
  }

  Topology topo_;
  FlowModel model_;
  RoutingPolicy policy_;
  RateLoads bg_;
  Rng rng_{12345};
};

TEST_P(FlowProperties, EveryMessageGetsPositiveRateAndFiniteTime) {
  const auto demands = random_demands(64, 4e6, rng_);
  const auto res = model_.transfer(demands, policy_, bg_, rng_);
  ASSERT_EQ(res.messages.size(), demands.size());
  for (const auto& m : res.messages) {
    EXPECT_GT(m.rate, 0.0);
    EXPECT_TRUE(std::isfinite(m.time));
    EXPECT_GT(m.time, 0.0);
    EXPECT_LE(m.time, res.makespan + 1e-12);
  }
}

TEST_P(FlowProperties, RoutedPathsConnectEndpoints) {
  const auto demands = random_demands(48, 1e5, rng_);
  const auto res = model_.transfer(demands, policy_, bg_, rng_);
  for (const auto& m : res.messages) {
    if (m.demand.src == m.demand.dst) continue;
    EXPECT_TRUE(topo_.path_connects(m.path, m.demand.src, m.demand.dst))
        << to_string(policy_);
  }
}

TEST_P(FlowProperties, ByteConservationAtEndpoints) {
  const auto demands = random_demands(32, 2e6, rng_);
  ByteLoads ours;
  ours.resize(topo_);
  (void)model_.transfer(demands, policy_, bg_, rng_, &ours);
  double inj = 0.0, ej = 0.0, expected = 0.0;
  for (double v : ours.inject_bytes) inj += v;
  for (double v : ours.eject_bytes) ej += v;
  for (const auto& d : demands) expected += d.bytes;
  EXPECT_NEAR(inj, expected, expected * 1e-9);
  EXPECT_NEAR(ej, expected, expected * 1e-9);
}

TEST_P(FlowProperties, LinkBytesAreAtLeastOneHopOfInterRouterVolume) {
  const auto demands = random_demands(32, 2e6, rng_);
  ByteLoads ours;
  ours.resize(topo_);
  (void)model_.transfer(demands, policy_, bg_, rng_, &ours);
  double link_bytes = 0.0, inter_router = 0.0;
  for (double v : ours.link_bytes) link_bytes += v;
  for (const auto& d : demands)
    if (d.src != d.dst) inter_router += d.bytes;
  EXPECT_GE(link_bytes, inter_router * 0.999);
  // And at most the diameter bound (valiant <= 10 hops).
  EXPECT_LE(link_bytes, inter_router * 10.001);
}

TEST_P(FlowProperties, MakespanMonotoneInBackgroundLoad) {
  const auto demands = random_demands(32, 8e6, rng_);
  double prev = 0.0;
  for (double util : {0.0, 0.5, 0.9}) {
    RateLoads bg;
    bg.resize(topo_);
    for (int e = 0; e < topo_.num_links(); ++e)
      bg.link_rate[std::size_t(e)] = util * topo_.link(LinkId(e)).capacity;
    Rng rng(777);  // identical path sampling across loads
    const auto res = model_.transfer(demands, policy_, bg, rng);
    EXPECT_GE(res.makespan, prev * 0.999) << "util=" << util;
    prev = res.makespan;
  }
}

TEST_P(FlowProperties, BackgroundRoutingDeterministicGivenRng) {
  const auto demands = random_demands(32, 1e6, rng_);
  RateLoads a, b;
  a.resize(topo_);
  b.resize(topo_);
  Rng r1(99), r2(99);
  model_.route_background(demands, policy_, 1.0, r1, a);
  model_.route_background(demands, policy_, 1.0, r2, b);
  for (std::size_t e = 0; e < a.link_rate.size(); ++e)
    ASSERT_DOUBLE_EQ(a.link_rate[e], b.link_rate[e]);
}

// Max-min fairness certificate. Single-chunk messages make each message
// one flow, so its path and rate are the flow's. Every flow must have a
// bottleneck: a resource on its route (links, then the source's inject
// and the destination's eject tile) whose residual capacity the flows
// use up, and on which no flow has a higher rate.
TEST_P(FlowProperties, RatesAreMaxMinFair) {
  const auto demands = random_demands(96, 5e5, rng_);
  RateLoads bg;
  bg.resize(topo_);
  const double ep_bw = topo_.config().endpoint_bw;
  for (int e = 0; e < topo_.num_links(); ++e)
    bg.link_rate[std::size_t(e)] = rng_.uniform(0.0, 1.0) * topo_.link(LinkId(e)).capacity;
  for (std::size_t r = 0; r < bg.inject_rate.size(); ++r) {
    bg.inject_rate[r] = rng_.uniform(0.0, 1.0) * ep_bw;
    bg.eject_rate[r] = rng_.uniform(0.0, 1.0) * ep_bw;
  }
  const auto res = model_.transfer(demands, policy_, bg, rng_);

  const std::size_t L = std::size_t(topo_.num_links());
  const std::size_t R = bg.inject_rate.size();
  const auto route = [&](const RoutedMessage& m) {
    std::vector<std::size_t> ids(m.path.links.begin(), m.path.links.end());
    ids.push_back(L + std::size_t(m.demand.src));
    ids.push_back(L + R + std::size_t(m.demand.dst));
    return ids;
  };
  const auto residual = [&](std::size_t e) {
    const double cap = e < L ? topo_.link(LinkId(e)).capacity : ep_bw;
    const double load = e < L       ? bg.link_rate[e]
                        : e < L + R ? bg.inject_rate[e - L]
                                    : bg.eject_rate[e - L - R];
    return std::max(cap * model_.params().capacity_headroom - load,
                    cap * model_.params().min_residual_frac);
  };
  std::vector<double> used(L + 2 * R, 0.0), top(L + 2 * R, 0.0);
  for (const RoutedMessage& m : res.messages)
    for (std::size_t e : route(m)) {
      used[e] += m.rate;
      top[e] = std::max(top[e], m.rate);
    }
  for (const RoutedMessage& m : res.messages) {
    bool bottlenecked = false;
    for (std::size_t e : route(m))
      if (used[e] >= residual(e) * (1.0 - 1e-9) && m.rate >= top[e] * (1.0 - 1e-9))
        bottlenecked = true;
    EXPECT_TRUE(bottlenecked) << to_string(policy_) << " " << m.demand.src << "->"
                              << m.demand.dst << " rate " << m.rate;
  }
  for (std::size_t e = 0; e < used.size(); ++e)
    EXPECT_LE(used[e], residual(e) * (1.0 + 1e-9)) << "resource " << e;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FlowProperties,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(RoutingPolicy::Minimal, RoutingPolicy::Valiant,
                                         RoutingPolicy::Ugal)),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      return std::to_string(std::get<0>(pinfo.param)) + "groups_" +
             to_string(std::get<1>(pinfo.param));
    });

}  // namespace
}  // namespace dfv::net
