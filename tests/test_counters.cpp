#include "mon/counter_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/check.hpp"

namespace dfv::mon {
namespace {

TEST(CounterCatalog, HasThirteenEntriesInTableOrder) {
  EXPECT_EQ(kNumCounters, 13);
  EXPECT_STREQ(counter_name(Counter::RT_FLIT_TOT), "RT_FLIT_TOT");
  EXPECT_STREQ(counter_name(Counter::PT_RB_2X_USG), "PT_RB_2X_USG");
  EXPECT_EQ(counter_from_index(0), Counter::RT_FLIT_TOT);
  EXPECT_EQ(counter_from_index(12), Counter::PT_RB_2X_USG);
  EXPECT_THROW((void)counter_from_index(13), ContractError);
}

TEST(CounterCatalog, AriesNamesPresent) {
  for (int i = 0; i < kNumCounters; ++i) {
    const CounterInfo& info = counter_info(counter_from_index(i));
    EXPECT_TRUE(std::string(info.aries_name).starts_with("AR_RTR_"));
    EXPECT_FALSE(std::string(info.description).empty());
  }
  EXPECT_TRUE(counter_info(Counter::RT_FLIT_TOT).derived);
  EXPECT_FALSE(counter_info(Counter::RT_RB_STL).derived);
}

TEST(CounterCatalog, LdmsFeatureNames) {
  EXPECT_EQ(ldms_io_feature_names().size(), std::size_t(kNumIoFeatures));
  EXPECT_EQ(ldms_sys_feature_names().size(), std::size_t(kNumSysFeatures));
  EXPECT_STREQ(ldms_io_feature_names()[0], "IO_RT_FLIT_TOT");
  EXPECT_STREQ(ldms_sys_feature_names()[3], "SYS_PT_PKT_TOT");
}

class CounterModelTest : public ::testing::Test {
 protected:
  CounterModelTest() : topo_(net::DragonflyConfig::small(4)), model_(topo_) {
    bg_.resize(topo_);
    job_.resize(topo_);
  }
  net::Topology topo_;
  CounterModel model_;
  net::RateLoads bg_;
  net::ByteLoads job_;
};

TEST_F(CounterModelTest, ZeroTrafficZeroCounters) {
  const CounterVec v = model_.router_counters(0, bg_, job_, 1.0);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST_F(CounterModelTest, DerivedCounterRelations) {
  job_.inject_bytes[0] = 64e6;
  job_.eject_bytes[0] = 16e6;
  const CounterVec v = model_.router_counters(0, bg_, job_, 1.0);
  EXPECT_NEAR(v[size_t(Counter::PT_FLIT_TOT)],
              v[size_t(Counter::PT_FLIT_VC0)] + v[size_t(Counter::PT_FLIT_VC4)], 1e-6);
  EXPECT_NEAR(v[size_t(Counter::PT_PKT_TOT)],
              v[size_t(Counter::PT_FLIT_TOT)] / topo_.config().flits_per_packet, 1e-6);
  EXPECT_NEAR(v[size_t(Counter::PT_FLIT_TOT)],
              (64e6 + 16e6) / topo_.config().flit_bytes, 1e-3);
}

TEST_F(CounterModelTest, TransitTrafficCountsOnReceivingRouter) {
  // Put bytes on one directed link and check the flits appear at its
  // destination router only.
  const net::LinkId e = topo_.green_link(0, 0, 0, 1);
  const net::LinkInfo& li = topo_.link(e);
  job_.link_bytes[std::size_t(e)] = 32e6;
  const CounterVec at_to = model_.router_counters(li.to, bg_, job_, 1.0);
  const CounterVec at_other = model_.router_counters(
      topo_.router_at(1, 0, 0), bg_, job_, 1.0);
  EXPECT_NEAR(at_to[size_t(Counter::RT_FLIT_TOT)], 32e6 / topo_.config().flit_bytes,
              1e-3);
  EXPECT_DOUBLE_EQ(at_other[size_t(Counter::RT_FLIT_TOT)], 0.0);
  EXPECT_NEAR(at_to[size_t(Counter::RT_PKT_TOT)],
              at_to[size_t(Counter::RT_FLIT_TOT)] / topo_.config().flits_per_packet,
              1e-6);
}

TEST_F(CounterModelTest, StallsRequireCongestion) {
  // Light load: no stalls.
  job_.inject_bytes[0] = 0.01 * topo_.config().endpoint_bw;
  CounterVec light = model_.router_counters(0, bg_, job_, 1.0);
  EXPECT_LT(light[size_t(Counter::PT_RB_STL_RQ)], 1e-6);

  // Saturating injection: request stalls appear.
  job_.inject_bytes[0] = 1.2 * topo_.config().endpoint_bw;
  CounterVec heavy = model_.router_counters(0, bg_, job_, 1.0);
  EXPECT_GT(heavy[size_t(Counter::PT_RB_STL_RQ)], 1e6);
  // Ejection side unaffected.
  EXPECT_LT(heavy[size_t(Counter::PT_RB_STL_RS)], 1e-6);
}

TEST_F(CounterModelTest, RouterTileStallsFromHotLink) {
  const net::LinkId e = topo_.green_link(0, 0, 0, 1);
  job_.link_bytes[std::size_t(e)] = 1.1 * topo_.link(e).capacity;  // dt=1
  const CounterVec v = model_.router_counters(topo_.link(e).to, bg_, job_, 1.0);
  EXPECT_GT(v[size_t(Counter::RT_RB_STL)], 0.0);
  EXPECT_GT(v[size_t(Counter::RT_RB_2X_USG)], 0.0);
}

TEST_F(CounterModelTest, BackgroundRatesIntegrateOverDt) {
  bg_.inject_rate[0] = 1e9;
  const CounterVec v1 = model_.router_counters(0, bg_, job_, 1.0);
  const CounterVec v2 = model_.router_counters(0, bg_, job_, 2.0);
  EXPECT_NEAR(v2[size_t(Counter::PT_FLIT_TOT)], 2.0 * v1[size_t(Counter::PT_FLIT_TOT)],
              1e-3);
}

TEST_F(CounterModelTest, AggregateSumsRouters) {
  job_.inject_bytes[0] = 8e6;
  job_.inject_bytes[1] = 8e6;
  const std::vector<net::RouterId> both = {0, 1};
  const std::vector<net::RouterId> just0 = {0};
  const CounterVec a = model_.aggregate(both, bg_, job_, 1.0);
  const CounterVec b = model_.aggregate(just0, bg_, job_, 1.0);
  EXPECT_NEAR(a[size_t(Counter::PT_FLIT_TOT)], 2.0 * b[size_t(Counter::PT_FLIT_TOT)],
              1e-6);
}

TEST_F(CounterModelTest, ResponseFractionSplitsVcs) {
  job_.inject_bytes[0] = 100e6;
  const CounterVec v = model_.router_counters(0, bg_, job_, 1.0);
  const double rf = model_.params().response_fraction;
  EXPECT_NEAR(v[size_t(Counter::PT_FLIT_VC4)] / v[size_t(Counter::PT_FLIT_TOT)], rf,
              1e-9);
}

TEST_F(CounterModelTest, RejectsNonPositiveDt) {
  EXPECT_THROW((void)model_.router_counters(0, bg_, job_, 0.0), ContractError);
}

TEST(CounterModelParams, RejectsNonFiniteOrNegativeWeights) {
  const net::Topology topo(net::DragonflyConfig::small(2));
  const double kBad[] = {-0.1, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()};
  for (double CounterModelParams::*field :
       {&CounterModelParams::in_stall_weight, &CounterModelParams::out_stall_weight,
        &CounterModelParams::cb_endpoint_weight, &CounterModelParams::cb_transit_weight})
    for (const double bad : kBad) {
      CounterModelParams p;
      p.*field = bad;
      EXPECT_THROW(CounterModel(topo, p), ContractError) << bad;
    }
  for (const double bad : {-0.01, 1.01, std::numeric_limits<double>::quiet_NaN()}) {
    CounterModelParams p;
    p.response_fraction = bad;
    EXPECT_THROW(CounterModel(topo, p), ContractError) << bad;
  }
  CounterModelParams edge;
  edge.in_stall_weight = 0.0;
  edge.response_fraction = 1.0;
  EXPECT_NO_THROW(CounterModel(topo, edge));
  edge.response_fraction = 0.0;
  EXPECT_NO_THROW(CounterModel(topo, edge));
}

}  // namespace
}  // namespace dfv::mon
