#include "apps/comm_patterns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "common/check.hpp"
#include "exec/exec.hpp"
#include "sched/allocator.hpp"

namespace dfv::apps {
namespace {

TEST(Factor3, ProductAndNearCubic) {
  for (int n : {1, 8, 27, 64, 128, 512, 1000}) {
    const auto d = factor3(n);
    EXPECT_EQ(d[0] * d[1] * d[2], n) << n;
    EXPECT_GE(d[0], d[1]);
    EXPECT_GE(d[1], d[2]);
  }
  EXPECT_EQ(factor3(128), (std::array<int, 3>{8, 4, 4}));
  EXPECT_EQ(factor3(512), (std::array<int, 3>{8, 8, 8}));
}

TEST(Factor4, ProductPreserved) {
  for (int n : {16, 128, 256, 512, 1024}) {
    const auto d = factor4(n);
    EXPECT_EQ(d[0] * d[1] * d[2] * d[3], n) << n;
    for (int x : d) EXPECT_GE(x, 1);
  }
}

class PatternsTest : public ::testing::Test {
 protected:
  PatternsTest() : topo_(net::DragonflyConfig::small(6)) {
    sched::NodeAllocator alloc(topo_);
    Rng rng(9);
    placement_ = sched::make_placement(
        alloc.allocate(64, sched::AllocPolicy::Clustered, rng), topo_);
  }
  net::Topology topo_;
  sched::Placement placement_;
  Rng rng_{21};
};

TEST_F(PatternsTest, DemandBuilderMergesDuplicatesAndSkipsLocal) {
  DemandBuilder b(placement_, topo_);
  b.add(0, 8, 100.0);
  b.add(0, 8, 50.0);   // same node pair: merged
  b.add(0, 1, 999.0);  // nodes 0,1 share a router in a packed allocation: dropped
  const auto demands = b.build();
  double total = 0.0;
  for (const auto& d : demands) total += d.bytes;
  const net::RouterId r0 = topo_.router_of_node(placement_.nodes[0]);
  const net::RouterId r1 = topo_.router_of_node(placement_.nodes[1]);
  if (r0 == r1) {
    ASSERT_EQ(demands.size(), 1u);
    EXPECT_DOUBLE_EQ(total, 150.0);
  } else {
    EXPECT_DOUBLE_EQ(total, 150.0 + 999.0);
  }
}

TEST_F(PatternsTest, DemandBuilderBoundsChecked) {
  DemandBuilder b(placement_, topo_);
  EXPECT_THROW(b.add(-1, 0, 1.0), ContractError);
  EXPECT_THROW(b.add(0, placement_.num_nodes(), 1.0), ContractError);
}

TEST_F(PatternsTest, Stencil3dVolumeMatchesFaces) {
  const auto dims = factor3(placement_.num_nodes());
  const double bytes_per_face = 1e6;
  const auto demands = stencil3d(placement_, topo_, dims, bytes_per_face);
  // Total volume (before same-router drops) = nodes * 2 faces per dim with
  // dims > 1 * bytes. Demands only lose same-router pairs, so the total is
  // bounded above by that and positive.
  int active_dims = 0;
  for (int d : dims)
    if (d > 1) ++active_dims;
  const double upper = double(placement_.num_nodes()) * 2.0 * active_dims * bytes_per_face;
  double total = 0.0;
  for (const auto& d : demands) total += d.bytes;
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, upper + 1e-6);
}

TEST_F(PatternsTest, Stencil3dRejectsWrongDims) {
  EXPECT_THROW((void)stencil3d(placement_, topo_, {3, 3, 3}, 1.0), ContractError);
}

TEST_F(PatternsTest, Stencil4dSymmetricDemands) {
  const auto dims = factor4(placement_.num_nodes());
  const auto demands = stencil4d(placement_, topo_, dims, 1e6);
  // Every demand's reverse direction exists with the same volume.
  std::map<std::pair<net::RouterId, net::RouterId>, double> vol;
  for (const auto& d : demands) vol[{d.src, d.dst}] += d.bytes;
  for (const auto& [key, v] : vol) {
    const auto rev = vol.find({key.second, key.first});
    ASSERT_NE(rev, vol.end());
    EXPECT_NEAR(rev->second, v, 1e-6);
  }
}

TEST_F(PatternsTest, IrregularExchangeVolumeApproximatesTarget) {
  const double target = 1e9;
  // Average over draws: lognormal with sigma 0.8 is noisy per flow.
  double total = 0.0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    const auto demands = irregular_exchange(placement_, topo_, 8, target, 0.8, rng_);
    for (const auto& d : demands) total += d.bytes;
  }
  // Same-router pairs drop some volume; expect the ballpark.
  EXPECT_GT(total / trials, 0.3 * target);
  EXPECT_LT(total / trials, 1.3 * target);
}

TEST_F(PatternsTest, IrregularExchangeEndpointsWithinJob) {
  const auto demands = irregular_exchange(placement_, topo_, 8, 1e8, 0.5, rng_);
  std::set<net::RouterId> allowed(placement_.routers.begin(), placement_.routers.end());
  for (const auto& d : demands) {
    EXPECT_TRUE(allowed.count(d.src));
    EXPECT_TRUE(allowed.count(d.dst));
    EXPECT_NE(d.src, d.dst);
  }
}

/// Demands as (src, dst, bit pattern of bytes) triples, for exact equality.
std::vector<std::array<std::uint64_t, 3>> bits_of(const std::vector<net::Demand>& ds) {
  std::vector<std::array<std::uint64_t, 3>> out;
  for (const net::Demand& d : ds)
    out.push_back({std::uint64_t(d.src), std::uint64_t(d.dst),
                   std::bit_cast<std::uint64_t>(d.bytes)});
  return out;
}

TEST(Patterns, StencilMemoMatchesFreshBuild) {
  const net::Topology topo(net::DragonflyConfig::small(6));
  net::DragonflyConfig wide = net::DragonflyConfig::small(6);
  wide.nodes_per_router = 4;  // same node ids, different routers
  const net::Topology topo_wide(wide);
  sched::NodeAllocator alloc(topo);
  Rng rng(13);
  const auto p1 =
      sched::make_placement(alloc.allocate(64, sched::AllocPolicy::Clustered, rng), topo);
  const auto p2 =
      sched::make_placement(alloc.allocate(64, sched::AllocPolicy::Fragmented, rng), topo);

  const StencilDemands<3> memo3;
  const StencilDemands<4> memo4;
  // Face sizes like the models': a per-step shape times a base volume.
  const auto face = [](int step) { return 2.0e6 * (1.0 + 0.12 * std::sin(0.7 * step)); };

  // Repeated steps on one placement, then a new placement, then a new
  // topology, then back: every call equals a fresh DemandBuilder pass.
  for (const auto& [place, net_topo] :
       {std::pair{&p1, &topo}, std::pair{&p2, &topo}, std::pair{&p2, &topo_wide},
        std::pair{&p1, &topo}})
    for (int step = 0; step < 4; ++step) {
      const std::array<int, 3> d3{4, 4, 4};
      EXPECT_EQ(bits_of(memo3(*place, *net_topo, d3, face(step))),
                bits_of(stencil3d(*place, *net_topo, d3, face(step))));
      const std::array<int, 4> d4{4, 4, 2, 2};
      EXPECT_EQ(bits_of(memo4(*place, *net_topo, d4, face(step) * 30.0)),
                bits_of(stencil4d(*place, *net_topo, d4, face(step) * 30.0)));
    }

  // Shapes: a flat or degenerate grid changes the edge counts per pair.
  for (const std::array<int, 3>& d3 :
       {std::array{8, 4, 2}, std::array{16, 2, 2}, std::array{64, 1, 1},
        std::array{4, 4, 4}}) {
    const auto got = memo3(p1, topo, d3, 1.0 / 3.0);
    EXPECT_FALSE(got.empty());
    EXPECT_EQ(bits_of(got), bits_of(stencil3d(p1, topo, d3, 1.0 / 3.0)));
  }
  EXPECT_EQ(bits_of(memo4(p2, topo, {2, 2, 4, 4}, 0.1)),
            bits_of(stencil4d(p2, topo, {2, 2, 4, 4}, 0.1)));

  // No positive face, no demand; the memo still serves the next step.
  EXPECT_TRUE(memo3(p1, topo, {4, 4, 4}, 0.0).empty());
  EXPECT_TRUE(memo3(p1, topo, {4, 4, 4}, -5.0).empty());
  EXPECT_TRUE(stencil3d(p1, topo, {4, 4, 4}, 0.0).empty());
  EXPECT_EQ(bits_of(memo3(p1, topo, {4, 4, 4}, 7.0)),
            bits_of(stencil3d(p1, topo, {4, 4, 4}, 7.0)));
  EXPECT_THROW((void)memo3(p1, topo, {4, 4, 2}, 1.0), ContractError);
}

TEST(Patterns, StencilMemoSharedAcrossThreads) {
  // Pool tasks alternate two placements through one memo, so it rebuilds
  // under contention; every call still equals a fresh build.
  const net::Topology topo(net::DragonflyConfig::small(6));
  sched::NodeAllocator alloc(topo);
  Rng rng(17);
  const std::array places{
      sched::make_placement(alloc.allocate(64, sched::AllocPolicy::Clustered, rng), topo),
      sched::make_placement(alloc.allocate(64, sched::AllocPolicy::Fragmented, rng), topo)};
  const std::array<int, 3> dims{4, 4, 4};
  std::array<std::vector<std::array<std::uint64_t, 3>>, 2> want;
  for (std::size_t p = 0; p < 2; ++p)
    want[p] = bits_of(stencil3d(places[p], topo, dims, 3.0e5));
  const StencilDemands<3> memo;
  std::vector<char> ok(64, 0);
  exec::parallel_for(0, ok.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      ok[i] = bits_of(memo(places[i % 2], topo, dims, 3.0e5)) == want[i % 2];
  });
  EXPECT_EQ(std::count(ok.begin(), ok.end(), 1), 64);
}

}  // namespace
}  // namespace dfv::apps
