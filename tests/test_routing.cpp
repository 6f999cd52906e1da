#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "net/flow_model.hpp"

namespace dfv::net {
namespace {

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest() : topo_(DragonflyConfig::small(4)), chooser_(topo_) {}
  Topology topo_;
  PathChooser chooser_;
  Rng rng_{77};
};

TEST_F(RoutingTest, SameRouterYieldsEmptyPath) {
  const Path p = chooser_.choose(5, 5, RoutingPolicy::Ugal, {}, rng_);
  EXPECT_EQ(p.hops(), 0u);
}

TEST_F(RoutingTest, MinimalPolicyPathsAreMinimal) {
  const int R = topo_.config().num_routers();
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = RouterId(rng_.uniform_index(R));
    const auto dst = RouterId(rng_.uniform_index(R));
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Minimal, {}, rng_);
    ASSERT_TRUE(topo_.path_connects(p, src, dst));
    EXPECT_LE(p.hops(), topo_.group_of(src) == topo_.group_of(dst) ? 2u : 5u);
  }
}

TEST_F(RoutingTest, ValiantInterGroupUsesTwoBlueHops) {
  // Pick an inter-group pair.
  const RouterId src = 0;
  const RouterId dst = topo_.router_at(2, 1, 1);
  int blue_hops_seen = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Valiant, {}, rng_);
    ASSERT_TRUE(topo_.path_connects(p, src, dst));
    int blue = 0;
    for (LinkId id : p.links)
      if (topo_.link(id).type == LinkType::Blue) ++blue;
    blue_hops_seen = std::max(blue_hops_seen, blue);
    EXPECT_LE(blue, 2);
  }
  EXPECT_EQ(blue_hops_seen, 2);  // valiant detours exist
}

TEST_F(RoutingTest, UgalOnIdleNetworkStaysMinimal) {
  std::vector<double> idle(std::size_t(topo_.num_links()), 0.0);
  const RouterId src = 0;
  const RouterId dst = topo_.router_at(3, 2, 3);
  for (int trial = 0; trial < 100; ++trial) {
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Ugal, idle, rng_);
    EXPECT_LE(p.hops(), 5u) << "UGAL took a non-minimal path on an idle network";
  }
}

TEST_F(RoutingTest, UgalAvoidsCongestedMinimalRoute) {
  // Saturate every blue link between groups 0 and 1; UGAL should detour
  // through another group most of the time.
  std::vector<double> load(std::size_t(topo_.num_links()), 0.0);
  for (int k = 0; k < topo_.blue_copies(); ++k) {
    const LinkId direct = topo_.blue_link(0, 1, k);
    load[std::size_t(direct)] = topo_.link(direct).capacity * 10.0;
  }
  const RouterId src = 0;
  const RouterId dst = topo_.router_at(1, 1, 2);
  int detours = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const Path p = chooser_.choose(src, dst, RoutingPolicy::Ugal, load, rng_);
    ASSERT_TRUE(topo_.path_connects(p, src, dst));
    bool used_direct = false;
    for (LinkId id : p.links) {
      const LinkInfo& li = topo_.link(id);
      if (li.type == LinkType::Blue && topo_.group_of(li.from) == 0 &&
          topo_.group_of(li.to) == 1)
        used_direct = true;
    }
    if (!used_direct) ++detours;
  }
  EXPECT_GT(detours, trials / 2);
}

TEST_F(RoutingTest, PathCostIncreasesWithLoad) {
  const Path p = topo_.minimal_path(0, topo_.router_at(2, 0, 0), 0);
  std::vector<double> idle(std::size_t(topo_.num_links()), 0.0);
  std::vector<double> busy(std::size_t(topo_.num_links()), 0.0);
  for (LinkId id : p.links) busy[std::size_t(id)] = topo_.link(id).capacity;
  EXPECT_GT(chooser_.path_cost(p, busy, false), chooser_.path_cost(p, idle, false));
}

TEST_F(RoutingTest, NonMinimalPenaltyApplied) {
  const Path p = topo_.minimal_path(0, topo_.router_at(2, 0, 0), 0);
  std::vector<double> idle(std::size_t(topo_.num_links()), 0.0);
  EXPECT_GT(chooser_.path_cost(p, idle, true), chooser_.path_cost(p, idle, false));
}

TEST_F(RoutingTest, BoundsCheckedOnRouterIds) {
  EXPECT_THROW((void)chooser_.choose(-1, 3, RoutingPolicy::Minimal, {}, rng_),
               ContractError);
  EXPECT_THROW((void)chooser_.choose(0, topo_.config().num_routers(),
                                     RoutingPolicy::Minimal, {}, rng_),
               ContractError);
}

// The routing decision as choose() made it before it was split into
// sample() and pick(): draws interleaved with cost comparisons. The oracle
// for Routing.SamplePickMatchesChoose.
Path reference_minimal(const Topology& topo, RouterId src, RouterId dst, Rng& rng) {
  const int copies = std::max(1, topo.blue_copies());
  const int k = int(rng.uniform_index(std::uint64_t(copies)));
  const auto o1 = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  const auto o2 = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  return topo.minimal_path(src, dst, k, o1, o2);
}

Path reference_valiant(const Topology& topo, RouterId src, RouterId dst, Rng& rng) {
  const int G = topo.config().groups;
  const GroupId ga = topo.group_of(src), gb = topo.group_of(dst);
  GroupId via = GroupId(rng.uniform_index(std::uint64_t(G)));
  for (int tries = 0; (via == ga || via == gb) && tries < 8; ++tries)
    via = GroupId(rng.uniform_index(std::uint64_t(G)));
  if (via == ga || via == gb) return reference_minimal(topo, src, dst, rng);
  const int copies = std::max(1, topo.blue_copies());
  const int k1 = int(rng.uniform_index(std::uint64_t(copies)));
  const int k2 = int(rng.uniform_index(std::uint64_t(copies)));
  const auto order = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  return topo.valiant_path(src, dst, via, k1, k2, order);
}

Path reference_choose(const Topology& topo, const PathChooser& costs, RouterId src,
                      RouterId dst, RoutingPolicy policy, std::span<const double> link_rate,
                      Rng& rng) {
  if (src == dst) return {};
  const int G = topo.config().groups;
  const bool same_group = topo.group_of(src) == topo.group_of(dst);
  const bool can_valiant = G > 2 || (G == 2 && same_group);
  switch (policy) {
    case RoutingPolicy::Minimal:
      return reference_minimal(topo, src, dst, rng);
    case RoutingPolicy::Valiant:
      return can_valiant ? reference_valiant(topo, src, dst, rng)
                         : reference_minimal(topo, src, dst, rng);
    case RoutingPolicy::Ugal: {
      Path best;
      double best_cost = std::numeric_limits<double>::infinity();
      for (int i = 0; i < costs.params().minimal_candidates; ++i) {
        Path p = reference_minimal(topo, src, dst, rng);
        const double c = costs.path_cost(p, link_rate, false);
        if (c < best_cost) {
          best_cost = c;
          best = p;
        }
      }
      if (can_valiant && !same_group)
        for (int i = 0; i < costs.params().valiant_candidates; ++i) {
          Path p = reference_valiant(topo, src, dst, rng);
          const double c = costs.path_cost(p, link_rate, true);
          if (c < best_cost) {
            best_cost = c;
            best = p;
          }
        }
      return best;
    }
  }
  return {};
}

std::vector<LinkId> links_of(const Path& p) { return {p.links.begin(), p.links.end()}; }

TEST(Routing, SamplePickMatchesChoose) {
  for (const DragonflyConfig& cfg :
       {DragonflyConfig::small(2), DragonflyConfig::small(4), DragonflyConfig::cori()}) {
    const Topology topo(cfg);
    const int R = cfg.num_routers(), rpg = cfg.routers_per_group();
    const std::size_t L = std::size_t(topo.num_links());
    Rng setup(cfg.groups);

    // Loads: none; idle; coarse levels, so equal-hop candidates tie; and
    // fine random loads.
    std::vector<std::vector<double>> loads(4);
    loads[1].assign(L, 0.0);
    loads[2].resize(L);
    loads[3].resize(L);
    for (std::size_t e = 0; e < L; ++e) {
      const double cap = topo.link(LinkId(e)).capacity;
      loads[2][e] = cap * double(setup.uniform_index(3)) * 0.5;
      loads[3][e] = cap * setup.uniform(0.0, 1.5);
    }

    for (const RoutingPolicy policy :
         {RoutingPolicy::Minimal, RoutingPolicy::Valiant, RoutingPolicy::Ugal})
      for (int m = 1; m <= 3; ++m)
        for (int v = 0; v <= 3; ++v) {
          RoutingParams params;
          params.minimal_candidates = m;
          params.valiant_candidates = v;
          const PathChooser chooser(topo, params);
          std::vector<Path> slots(std::size_t(chooser.max_candidates()));
          for (const auto& load : loads)
            for (int trial = 0; trial < 12; ++trial) {
              // Same router, same group, and (with > 1 group) cross-group.
              const auto src = RouterId(setup.uniform_index(std::uint64_t(R)));
              RouterId dst = src;
              if (trial % 3 == 1)
                dst = RouterId(topo.group_of(src) * rpg +
                               int(setup.uniform_index(std::uint64_t(rpg))));
              if (trial % 3 == 2)
                dst = RouterId((src + rpg * (1 + int(setup.uniform_index(
                                                   std::uint64_t(cfg.groups - 1))))) %
                               R);
              const std::uint64_t seed = setup();
              Rng a(seed), b(seed), c(seed);
              const Path want = reference_choose(topo, chooser, src, dst, policy, load, a);
              const Candidates drawn = chooser.sample(src, dst, policy, b, slots);
              const Path got = chooser.pick(policy, slots, drawn, load);
              const Path chosen = chooser.choose(src, dst, policy, load, c);
              ASSERT_EQ(links_of(got), links_of(want))
                  << to_string(policy) << " m=" << m << " v=" << v << " " << src << "->"
                  << dst << " groups=" << cfg.groups;
              ASSERT_EQ(links_of(chosen), links_of(want));
              // Every stream ends where the reference left it.
              const std::uint64_t next = a();
              ASSERT_EQ(b(), next);
              ASSERT_EQ(c(), next);
            }
        }
  }
}

// pick() stops costing a candidate once it cannot win. It must still pick
// what a strict-< argmin over path_cost picks, minimal candidates first, on
// Cori's cross-group pairs (Valiant candidates up to 8 links): idle loads
// (equal-hop ties), coarse load levels (exact ties between different
// paths), fine random loads, and with a candidate repeated.
TEST(Routing, PickMatchesPathCostArgmin) {
  const Topology topo(DragonflyConfig::cori());
  RoutingParams params;
  params.minimal_candidates = 3;
  params.valiant_candidates = 4;
  const PathChooser chooser(topo, params);
  const int R = topo.config().num_routers(), rpg = topo.config().routers_per_group();
  const std::size_t L = std::size_t(topo.num_links());
  Rng setup(2024);
  std::vector<std::vector<double>> loads(4);
  loads[1].assign(L, 0.0);
  loads[2].resize(L);
  loads[3].resize(L);
  for (std::size_t e = 0; e < L; ++e) {
    const double cap = topo.link(LinkId(e)).capacity;
    loads[2][e] = cap * double(setup.uniform_index(3)) * 0.5;
    loads[3][e] = cap * setup.uniform(0.0, 1.5);
  }
  std::vector<Path> slots(std::size_t(chooser.max_candidates()));
  std::size_t eight_links = 0, ties = 0, cut_short = 0;
  for (const auto& load : loads)
    for (int trial = 0; trial < 400; ++trial) {
      const auto src = RouterId(setup.uniform_index(std::uint64_t(R)));
      const auto dst = RouterId(
          (src + rpg * (1 + int(setup.uniform_index(std::uint64_t(topo.config().groups - 1))))) %
          R);
      Rng draw(setup());
      const Candidates c = chooser.sample(src, dst, RoutingPolicy::Ugal, draw, slots);
      ASSERT_EQ(c.count, 7);
      if (trial % 4 == 3) slots[1] = slots[0];
      int want = -1;
      double best = std::numeric_limits<double>::infinity();
      for (int i = 0; i < c.count; ++i) {
        const Path& p = slots[std::size_t(i)];
        const double cost = chooser.path_cost(p, load, i >= c.minimal);
        if (p.links.size() == 8) ++eight_links;
        if (cost == best) ++ties;
        if (cost >= best && !load.empty()) ++cut_short;
        if (cost < best) {
          best = cost;
          want = i;
        }
      }
      const Path got = chooser.pick(RoutingPolicy::Ugal, slots, c, load);
      ASSERT_GE(want, 0);
      ASSERT_EQ(links_of(got), links_of(slots[std::size_t(want)]))
          << "load set " << (&load - loads.data()) << " trial " << trial;
    }
  EXPECT_GT(eight_links, 0u);
  EXPECT_GT(ties, 0u);
  EXPECT_GT(cut_short, 0u);
}

TEST(Routing, RejectsInvalidParams) {
  const Topology topo(DragonflyConfig::small(4));
  const auto rejects = [&topo](auto mutate) {
    RoutingParams p;
    mutate(p);
    EXPECT_THROW(PathChooser(topo, p), ContractError);
    FlowModelParams fp;
    fp.routing = p;
    EXPECT_THROW(FlowModel(topo, fp), ContractError);
  };
  rejects([](RoutingParams& p) { p.minimal_candidates = 0; });
  rejects([](RoutingParams& p) { p.valiant_candidates = -1; });
  rejects([](RoutingParams& p) { p.congestion_weight = -1.0; });
  rejects([](RoutingParams& p) { p.congestion_weight = std::numeric_limits<double>::infinity(); });
  rejects([](RoutingParams& p) { p.valiant_hop_penalty = std::numeric_limits<double>::quiet_NaN(); });
  rejects([](RoutingParams& p) { p.valiant_hop_penalty = -0.5; });
  RoutingParams edge;
  edge.minimal_candidates = 1;
  edge.valiant_candidates = 0;
  edge.congestion_weight = 0.0;
  edge.valiant_hop_penalty = 0.0;
  EXPECT_NO_THROW(PathChooser(topo, edge));
}

TEST(RoutingNames, ToString) {
  EXPECT_STREQ(to_string(RoutingPolicy::Minimal), "minimal");
  EXPECT_STREQ(to_string(RoutingPolicy::Valiant), "valiant");
  EXPECT_STREQ(to_string(RoutingPolicy::Ugal), "ugal");
}

}  // namespace
}  // namespace dfv::net
