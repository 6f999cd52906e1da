#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dfv::net {
namespace {

TEST(Config, ValidatesParameters) {
  DragonflyConfig bad = DragonflyConfig::small(4);
  bad.row_size = 1;
  EXPECT_THROW(bad.validate(), ContractError);

  DragonflyConfig few_ports = DragonflyConfig::small(4);
  few_ports.groups = 64;
  few_ports.global_ports_per_router = 1;  // 12 * 1 < 63 peers
  EXPECT_THROW(few_ports.validate(), ContractError);

  EXPECT_NO_THROW(DragonflyConfig::cori().validate());
}

TEST(Config, DerivedCounts) {
  const DragonflyConfig cori = DragonflyConfig::cori();
  EXPECT_EQ(cori.routers_per_group(), 96);
  EXPECT_EQ(cori.num_routers(), 34 * 96);
  EXPECT_EQ(cori.num_nodes(), 34 * 96 * 4);
  EXPECT_EQ(cori.links_per_group_pair(), 96 * 10 / 33);
}

TEST(Topology, LinkCountsMatchFormula) {
  const DragonflyConfig cfg = DragonflyConfig::small(4);
  const Topology topo(cfg);
  const int R = cfg.row_size, C = cfg.col_size, G = cfg.groups;
  const int green = G * C * R * (R - 1);
  const int black = G * R * C * (C - 1);
  const int blue = G * (G - 1) * topo.blue_copies();
  EXPECT_EQ(topo.num_links(), green + black + blue);
}

TEST(Topology, LinkClassRangesCoverEveryLink) {
  for (const DragonflyConfig& cfg : {DragonflyConfig::small(4), DragonflyConfig::cori()}) {
    const Topology topo(cfg);
    const auto classes = topo.link_classes();
    const LinkType types[] = {LinkType::Green, LinkType::Black, LinkType::Blue};
    LinkId next = 0;
    for (std::size_t k = 0; k < classes.size(); ++k) {
      EXPECT_EQ(classes[k].begin, next);
      for (LinkId id = classes[k].begin; id < classes[k].end; ++id) {
        ASSERT_EQ(topo.link(id).type, types[k]) << id;
        ASSERT_EQ(topo.link(id).capacity, classes[k].capacity) << id;
        ASSERT_EQ(topo.link_capacity(id), topo.link(id).capacity) << id;
        ASSERT_EQ(topo.link_latency(id), topo.link(id).latency) << id;
      }
      next = classes[k].end;
    }
    EXPECT_EQ(next, topo.num_links());
  }
  // Cori's per-link arrays: 48,960 green + 16,320 black + 32,538 blue.
  const auto cori = Topology(DragonflyConfig::cori()).link_classes();
  EXPECT_EQ(cori[0].end - cori[0].begin, 48960);
  EXPECT_EQ(cori[1].end - cori[1].begin, 16320);
  EXPECT_EQ(cori[2].end - cori[2].begin, 32538);
}

TEST(Topology, CoordinateRoundTrip) {
  const Topology topo(DragonflyConfig::small(4));
  for (RouterId r = 0; r < topo.config().num_routers(); ++r) {
    EXPECT_EQ(topo.router_at(topo.group_of(r), topo.row_of(r), topo.col_of(r)), r);
  }
}

TEST(Topology, NodeRouterMapping) {
  const Topology topo(DragonflyConfig::small(4));
  const int npr = topo.config().nodes_per_router;
  for (NodeId n = 0; n < topo.config().num_nodes(); n += 3) {
    const RouterId r = topo.router_of_node(n);
    EXPECT_GE(n, topo.first_node_of(r));
    EXPECT_LT(n, topo.first_node_of(r) + npr);
  }
}

TEST(Topology, GreenLinksConnectSameRow) {
  const Topology topo(DragonflyConfig::small(4));
  for (const auto& li : topo.links()) {
    if (li.type != LinkType::Green) continue;
    EXPECT_EQ(topo.group_of(li.from), topo.group_of(li.to));
    EXPECT_EQ(topo.row_of(li.from), topo.row_of(li.to));
    EXPECT_NE(topo.col_of(li.from), topo.col_of(li.to));
  }
}

TEST(Topology, BlackLinksConnectSameColumn) {
  const Topology topo(DragonflyConfig::small(4));
  for (const auto& li : topo.links()) {
    if (li.type != LinkType::Black) continue;
    EXPECT_EQ(topo.group_of(li.from), topo.group_of(li.to));
    EXPECT_EQ(topo.col_of(li.from), topo.col_of(li.to));
    EXPECT_NE(topo.row_of(li.from), topo.row_of(li.to));
  }
}

TEST(Topology, BlueLinksConnectDistinctGroupsConsistently) {
  const Topology topo(DragonflyConfig::small(5));
  const int G = topo.config().groups;
  for (GroupId a = 0; a < G; ++a)
    for (GroupId b = 0; b < G; ++b) {
      if (a == b) continue;
      for (int k = 0; k < topo.blue_copies(); ++k) {
        const LinkInfo& li = topo.link(topo.blue_link(a, b, k));
        EXPECT_EQ(topo.group_of(li.from), a);
        EXPECT_EQ(topo.group_of(li.to), b);
        // The reverse directed link uses the same physical endpoints.
        const LinkInfo& rev = topo.link(topo.blue_link(b, a, k));
        EXPECT_EQ(rev.from, li.to);
        EXPECT_EQ(rev.to, li.from);
      }
    }
}

TEST(Topology, GlobalPortBudgetRespected) {
  for (int groups : {4, 8}) {
    const Topology topo(DragonflyConfig::small(groups));
    std::map<RouterId, int> degree;
    for (const auto& li : topo.links())
      if (li.type == LinkType::Blue) ++degree[li.from];
    for (const auto& [router, deg] : degree)
      EXPECT_LE(deg, topo.config().global_ports_per_router) << "router " << router;
  }
}

TEST(Topology, LinkIdsAreUniquePerPhysicalDirection) {
  const Topology topo(DragonflyConfig::small(4));
  std::set<std::pair<RouterId, RouterId>> seen_blue;
  int dup = 0;
  for (const auto& li : topo.links()) {
    if (li.type != LinkType::Blue) continue;
    if (!seen_blue.insert({li.from, li.to}).second) ++dup;
  }
  // Parallel blue copies may share endpoints; green/black may not.
  std::set<std::pair<RouterId, RouterId>> seen_local;
  for (const auto& li : topo.links()) {
    if (li.type == LinkType::Blue) continue;
    EXPECT_TRUE(seen_local.insert({li.from, li.to}).second);
  }
}

TEST(Topology, InOutAdjacencyConsistent) {
  const Topology topo(DragonflyConfig::small(4));
  std::size_t out_total = 0, in_total = 0;
  for (RouterId r = 0; r < topo.config().num_routers(); ++r) {
    out_total += topo.out_links(r).size();
    in_total += topo.in_links(r).size();
    for (LinkId id : topo.out_links(r)) EXPECT_EQ(topo.link(id).from, r);
    for (LinkId id : topo.in_links(r)) EXPECT_EQ(topo.link(id).to, r);
  }
  EXPECT_EQ(out_total, std::size_t(topo.num_links()));
  EXPECT_EQ(in_total, std::size_t(topo.num_links()));
}

// ---- Path property sweep over several configurations --------------------

class PathProperties : public ::testing::TestWithParam<int> {};

TEST_P(PathProperties, MinimalPathsConnectAndAreShort) {
  const Topology topo(DragonflyConfig::small(GetParam()));
  Rng rng(99);
  const int R = topo.config().num_routers();
  for (int trial = 0; trial < 500; ++trial) {
    const auto src = RouterId(rng.uniform_index(R));
    const auto dst = RouterId(rng.uniform_index(R));
    const int k = int(rng.uniform_index(std::uint64_t(topo.blue_copies())));
    const Path p = topo.minimal_path(src, dst, k);
    ASSERT_TRUE(topo.path_connects(p, src, dst))
        << "src=" << src << " dst=" << dst << " k=" << k;
    if (topo.group_of(src) == topo.group_of(dst))
      EXPECT_LE(p.hops(), 2u);
    else
      EXPECT_LE(p.hops(), 5u);
  }
}

TEST_P(PathProperties, ValiantPathsConnectAndVisitViaGroup) {
  const Topology topo(DragonflyConfig::small(GetParam()));
  Rng rng(100);
  const int R = topo.config().num_routers();
  const int G = topo.config().groups;
  if (G < 3) GTEST_SKIP();
  for (int trial = 0; trial < 300; ++trial) {
    const auto src = RouterId(rng.uniform_index(R));
    const auto dst = RouterId(rng.uniform_index(R));
    GroupId via = GroupId(rng.uniform_index(G));
    while (via == topo.group_of(src) || via == topo.group_of(dst))
      via = GroupId(rng.uniform_index(G));
    const int k1 = int(rng.uniform_index(std::uint64_t(topo.blue_copies())));
    const int k2 = int(rng.uniform_index(std::uint64_t(topo.blue_copies())));
    const Path p = topo.valiant_path(src, dst, via, k1, k2);
    ASSERT_TRUE(topo.path_connects(p, src, dst));
    EXPECT_LE(p.hops(), 10u);
    bool visits_via = false;
    for (LinkId id : p.links)
      if (topo.group_of(topo.link(id).to) == via) visits_via = true;
    EXPECT_TRUE(visits_via);
  }
}

TEST_P(PathProperties, PathLatencyPositiveForDistinctRouters) {
  const Topology topo(DragonflyConfig::small(GetParam()));
  const Path p = topo.minimal_path(0, topo.config().num_routers() - 1, 0);
  EXPECT_GT(topo.path_latency(p), 0.0);
  EXPECT_DOUBLE_EQ(topo.path_latency(Path{}), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PathProperties, ::testing::Values(2, 3, 4, 6, 8));

// Every route fits Path's inline bound at Cori scale: all ordered group
// pairs, every blue copy and every intra-group order, with endpoints and
// Valiant choices drawn from a seeded stream. The bound is tight: some
// Valiant route takes all 8 links.
TEST(Topology, CoriPathsFitInlineBound) {
  const Topology topo(DragonflyConfig::cori());
  const int G = topo.config().groups;
  const int rpg = topo.config().routers_per_group();
  const int K = topo.blue_copies();
  constexpr IntraOrder kOrders[] = {IntraOrder::RowFirst, IntraOrder::ColFirst};
  Rng rng(2024);
  const auto router_in = [&](GroupId g) {
    return topo.router_at(g, 0, 0) + RouterId(rng.uniform_index(std::uint64_t(rpg)));
  };
  std::size_t longest_minimal = 0, longest_valiant = 0;
  for (GroupId ga = 0; ga < G; ++ga)
    for (GroupId gb = 0; gb < G; ++gb) {
      if (ga == gb) {
        for (IntraOrder o : kOrders) {
          const RouterId src = router_in(ga), dst = router_in(gb);
          const Path p = topo.minimal_path(src, dst, 0, o, o);
          ASSERT_TRUE(topo.path_connects(p, src, dst));
          longest_minimal = std::max(longest_minimal, p.hops());
        }
        continue;
      }
      for (int k = 0; k < K; ++k) {
        for (IntraOrder o1 : kOrders)
          for (IntraOrder o2 : kOrders) {
            const RouterId src = router_in(ga), dst = router_in(gb);
            const Path p = topo.minimal_path(src, dst, k, o1, o2);
            ASSERT_TRUE(topo.path_connects(p, src, dst));
            longest_minimal = std::max(longest_minimal, p.hops());
          }
        for (IntraOrder o : kOrders) {
          GroupId via = GroupId(rng.uniform_index(std::uint64_t(G)));
          while (via == ga || via == gb) via = GroupId(rng.uniform_index(std::uint64_t(G)));
          const int k2 = int(rng.uniform_index(std::uint64_t(K)));
          const RouterId src = router_in(ga), dst = router_in(gb);
          const Path p = topo.valiant_path(src, dst, via, k, k2, o);
          ASSERT_TRUE(topo.path_connects(p, src, dst));
          longest_valiant = std::max(longest_valiant, p.hops());
        }
      }
    }
  EXPECT_EQ(longest_minimal, 5u);
  EXPECT_EQ(longest_valiant, LinkList::kCapacity);
}

TEST(Topology, NinthLinkIsAContractError) {
  Path p;
  for (std::size_t i = 0; i < LinkList::kCapacity; ++i) p.links.push_back(LinkId(i));
  EXPECT_EQ(p.hops(), LinkList::kCapacity);
  EXPECT_THROW(p.links.push_back(LinkId(8)), ContractError);
  EXPECT_EQ(p.hops(), LinkList::kCapacity);
}

TEST(Topology, PathConnectsRejectsBrokenPaths) {
  const Topology topo(DragonflyConfig::small(4));
  Path p = topo.minimal_path(0, 30, 0);
  ASSERT_FALSE(p.links.empty());
  std::swap(p.links.front(), p.links.back());
  if (p.links.size() > 1) {
    EXPECT_FALSE(topo.path_connects(p, 0, 30));
  }
  EXPECT_FALSE(topo.path_connects(Path{}, 0, 30));
}

TEST(Topology, DescribeMentionsScale) {
  const Topology topo(DragonflyConfig::cori());
  const std::string d = topo.describe();
  EXPECT_NE(d.find("34 groups"), std::string::npos);
  EXPECT_NE(d.find("3264 routers"), std::string::npos);
}

}  // namespace
}  // namespace dfv::net
