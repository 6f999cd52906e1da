// Helpers for building router-level traffic from logical node
// communication patterns (stencils, irregular graph exchange).
#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "net/traffic.hpp"
#include "sched/placement.hpp"

namespace dfv::apps {

/// Factor n into a near-cubic 3-D grid (a*b*c == n, a >= b >= c).
[[nodiscard]] std::array<int, 3> factor3(int n);
/// Factor n into a near-hypercubic 4-D grid.
[[nodiscard]] std::array<int, 4> factor4(int n);

/// Accumulates node-pair traffic and merges it into router-level demands
/// (ranks on the same router exchange through shared memory / the local
/// router and produce no network demand).
class DemandBuilder {
 public:
  DemandBuilder(const sched::Placement& placement, const net::Topology& topo)
      : placement_(&placement), topo_(&topo) {}

  /// Add `bytes` from the node at placement rank-index `a` to index `b`.
  void add(int a, int b, double bytes);

  /// Merge duplicates and return the demand list.
  [[nodiscard]] std::vector<net::Demand> build();

 private:
  const sched::Placement* placement_;
  const net::Topology* topo_;
  std::vector<std::pair<std::uint64_t, double>> edges_;
};

/// 3-D halo exchange over the placement's nodes arranged in `dims`
/// (placement order = lexicographic grid order): each node sends
/// `bytes_per_face` to each of its (up to 6) neighbors.
[[nodiscard]] std::vector<net::Demand> stencil3d(const sched::Placement& placement,
                                                 const net::Topology& topo,
                                                 const std::array<int, 3>& dims,
                                                 double bytes_per_face);

/// 4-D halo exchange (MILC's pattern), 8 neighbors per node.
[[nodiscard]] std::vector<net::Demand> stencil4d(const sched::Placement& placement,
                                                 const net::Topology& topo,
                                                 const std::array<int, 4>& dims,
                                                 double bytes_per_face);

/// A model's stencil exchange, memoised across steps: every step sends
/// the same stencil over the same placement and only `bytes_per_face`
/// changes. The router pairs and the number of node edges behind each
/// pair are kept for the last (placement nodes, dims, nodes per router)
/// seen; a call rebuilds each pair's bytes by adding `bytes_per_face`
/// once per edge. The addends are equal, so that is bit for bit the sum
/// DemandBuilder forms, and the result equals stencil3d()/stencil4d().
/// Safe to call from several threads.
template <std::size_t D>
class StencilDemands {
 public:
  [[nodiscard]] std::vector<net::Demand> operator()(const sched::Placement& placement,
                                                    const net::Topology& topo,
                                                    const std::array<int, D>& dims,
                                                    double bytes_per_face) const;

 private:
  mutable std::mutex mu_;
  mutable std::vector<net::NodeId> nodes_;
  mutable std::array<int, D> dims_{};
  mutable int nodes_per_router_ = 0;
  /// One demand per router pair, in DemandBuilder order, with the pair's
  /// edge count as its bytes.
  mutable std::vector<net::Demand> edges_;
};

extern template class StencilDemands<3>;
extern template class StencilDemands<4>;

/// Irregular graph exchange (miniVite): each node exchanges with
/// `peers_per_node` random peers; per-pair volume is lognormal with the
/// given sigma, scaled so the expected total equals `total_bytes`.
[[nodiscard]] std::vector<net::Demand> irregular_exchange(
    const sched::Placement& placement, const net::Topology& topo, int peers_per_node,
    double total_bytes, double lognormal_sigma, Rng& rng);

}  // namespace dfv::apps
