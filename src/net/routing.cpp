#include "net/routing.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace dfv::net {

const char* to_string(RoutingPolicy p) noexcept {
  switch (p) {
    case RoutingPolicy::Minimal: return "minimal";
    case RoutingPolicy::Valiant: return "valiant";
    case RoutingPolicy::Ugal: return "ugal";
  }
  return "?";
}

PathChooser::PathChooser(const Topology& topo, RoutingParams params)
    : topo_(&topo), params_(params) {
  DFV_CHECK_MSG(params_.minimal_candidates >= 1,
                "routing needs at least one minimal candidate per decision");
  DFV_CHECK(params_.valiant_candidates >= 0);
  DFV_CHECK(std::isfinite(params_.congestion_weight) && params_.congestion_weight >= 0.0);
  DFV_CHECK(std::isfinite(params_.valiant_hop_penalty) && params_.valiant_hop_penalty >= 0.0);
}

double PathChooser::path_cost(const Path& p, std::span<const double> link_rate,
                              bool non_minimal) const {
  double cost = double(p.hops());
  if (non_minimal) cost += params_.valiant_hop_penalty * double(p.hops());
  if (!link_rate.empty()) {
    for (LinkId id : p.links) {
      const LinkInfo& li = topo_->link(id);
      cost += params_.congestion_weight * link_rate[std::size_t(id)] / li.capacity;
    }
  }
  return cost;
}

Path PathChooser::sample_minimal(RouterId src, RouterId dst, Rng& rng) const {
  const int copies = std::max(1, topo_->blue_copies());
  const int k = int(rng.uniform_index(std::uint64_t(copies)));
  const auto o1 = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  const auto o2 = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  return topo_->minimal_path(src, dst, k, o1, o2);
}

Path PathChooser::sample_valiant(RouterId src, RouterId dst, Rng& rng) const {
  const int G = topo_->config().groups;
  const GroupId ga = topo_->group_of(src), gb = topo_->group_of(dst);
  // Draw an intermediate group distinct from both endpoints' groups.
  GroupId via = GroupId(rng.uniform_index(std::uint64_t(G)));
  for (int tries = 0; (via == ga || via == gb) && tries < 8; ++tries)
    via = GroupId(rng.uniform_index(std::uint64_t(G)));
  if (via == ga || via == gb) return sample_minimal(src, dst, rng);
  const int copies = std::max(1, topo_->blue_copies());
  const int k1 = int(rng.uniform_index(std::uint64_t(copies)));
  const int k2 = int(rng.uniform_index(std::uint64_t(copies)));
  const auto order = rng.bernoulli(0.5) ? IntraOrder::RowFirst : IntraOrder::ColFirst;
  return topo_->valiant_path(src, dst, via, k1, k2, order);
}

int PathChooser::max_candidates() const noexcept {
  return params_.minimal_candidates + params_.valiant_candidates;
}

Candidates PathChooser::sample(RouterId src, RouterId dst, RoutingPolicy policy, Rng& rng,
                               std::span<Path> slots) const {
  DFV_CHECK(src >= 0 && src < topo_->config().num_routers());
  DFV_CHECK(dst >= 0 && dst < topo_->config().num_routers());
  DFV_CHECK(slots.size() >= std::size_t(max_candidates()));
  if (src == dst) return {};

  const bool can_valiant = topo_->config().groups > 2 ||
                           (topo_->config().groups == 2 &&
                            topo_->group_of(src) == topo_->group_of(dst));

  switch (policy) {
    case RoutingPolicy::Minimal:
      break;
    case RoutingPolicy::Valiant:
      // Every pair that can detour does, intra-group pairs included: they
      // leave through a random other group and come back. On two groups
      // only intra-group pairs can detour, on one group none can. So the
      // Valiant rows of ablation_routing (packet DES, 9 groups) price a
      // detour on every packet, local traffic too, against minimal and
      // UGAL routing.
      if (!can_valiant) break;
      slots[0] = sample_valiant(src, dst, rng);
      return {1, 0};
    case RoutingPolicy::Ugal: {
      int n = 0;
      for (int i = 0; i < params_.minimal_candidates; ++i)
        slots[std::size_t(n++)] = sample_minimal(src, dst, rng);
      if (can_valiant && topo_->group_of(src) != topo_->group_of(dst))
        for (int i = 0; i < params_.valiant_candidates; ++i)
          slots[std::size_t(n++)] = sample_valiant(src, dst, rng);
      return {n, params_.minimal_candidates};
    }
  }
  slots[0] = sample_minimal(src, dst, rng);
  return {1, 1};
}

Path PathChooser::pick(RoutingPolicy policy, std::span<const Path> slots, Candidates c,
                       std::span<const double> link_rate) const {
  if (c.count == 0) return {};
  if (policy != RoutingPolicy::Ugal) return slots[0];
  // path_cost, summed in its order, but a candidate stops being costed
  // once its cost is not below the best so far. Every congestion term
  // w * rate / cap is >= 0 (loads are never negative), and adding a
  // non-negative double never lowers a sum, so such a candidate could not
  // have won under the strict `<`; NaN fails `<` either way.
  int best = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int i = 0; i < c.count; ++i) {
    const Path& p = slots[std::size_t(i)];
    double cost = double(p.hops());
    if (i >= c.minimal) cost += params_.valiant_hop_penalty * double(p.hops());
    if (!(cost < best_cost)) continue;
    if (!link_rate.empty())
      for (LinkId id : p.links) {
        cost += params_.congestion_weight * link_rate[std::size_t(id)] /
                topo_->link_capacity(id);
        if (!(cost < best_cost)) break;
      }
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best < 0 ? Path{} : slots[std::size_t(best)];
}

Path PathChooser::choose(RouterId src, RouterId dst, RoutingPolicy policy,
                         std::span<const double> link_rate, Rng& rng) const {
  std::array<Path, 8> local;
  std::vector<Path> heap;
  std::span<Path> slots(local);
  if (std::size_t(max_candidates()) > local.size()) {
    heap.resize(std::size_t(max_candidates()));
    slots = heap;
  }
  return pick(policy, slots, sample(src, dst, policy, rng, slots), link_rate);
}

}  // namespace dfv::net
