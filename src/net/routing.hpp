// Routing policies for the dragonfly: minimal, Valiant, and UGAL-style
// adaptive routing (Cray XC systems route adaptively based on link
// back-pressure; §II-A of the paper).
#pragma once

#include <span>

#include "common/rng.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

namespace dfv::net {

enum class RoutingPolicy : std::uint8_t {
  Minimal,  ///< always a shortest path (random blue copy / intra order)
  Valiant,  ///< always via a random intermediate group
  Ugal,     ///< adaptive: cheapest of sampled minimal and Valiant candidates
};

[[nodiscard]] const char* to_string(RoutingPolicy p) noexcept;

/// Tuning knobs for adaptive path choice.
struct RoutingParams {
  int minimal_candidates = 2;  ///< minimal paths sampled per decision
  int valiant_candidates = 2;  ///< Valiant paths sampled per decision
  /// Weight of normalized link load vs. hop count in the path cost
  /// (cost = hops + congestion_weight * sum(load_e / cap_e)).
  double congestion_weight = 6.0;
  /// Extra cost per hop charged to non-minimal paths (UGAL's reluctance
  /// to take the longer route when the network is idle).
  double valiant_hop_penalty = 0.35;
};

/// What one routing decision drew: `count` candidate paths, of which the
/// first `minimal` are costed as minimal routes and the rest as
/// non-minimal ones. `count` is 0 only for src == dst.
struct Candidates {
  int count = 0;
  int minimal = 0;
};

/// Chooses paths given the current link-load estimate.
///
/// A decision has two parts. sample() draws the candidate paths; its
/// draws depend only on (src, dst, policy) and the Rng, never on load.
/// pick() compares the candidates against a load estimate. choose() is
/// pick(sample()), so a caller may draw many decisions' candidates ahead
/// of time (in parallel, each from its own stream) and pick later against
/// whatever load it has by then, with exactly the results of choose().
class PathChooser {
 public:
  /// Throws ContractError unless minimal_candidates >= 1,
  /// valiant_candidates >= 0, and both cost weights are finite and >= 0.
  PathChooser(const Topology& topo, RoutingParams params = {});

  /// Pick a path for (src, dst) under `policy`. `link_rate` is the current
  /// per-link load estimate in bytes/s (may be empty => uncongested).
  [[nodiscard]] Path choose(RouterId src, RouterId dst, RoutingPolicy policy,
                            std::span<const double> link_rate, Rng& rng) const;

  /// Slots one sample() call may fill: the most candidates a decision draws.
  [[nodiscard]] int max_candidates() const noexcept;

  /// Draw the candidates choose() would draw, in its order, into `slots`
  /// (at least max_candidates() long), consuming `rng` exactly as it does.
  [[nodiscard]] Candidates sample(RouterId src, RouterId dst, RoutingPolicy policy, Rng& rng,
                                  std::span<Path> slots) const;

  /// choose()'s verdict over sampled candidates: the only candidate under
  /// Minimal and Valiant; under UGAL the cheapest by path_cost, minimal
  /// candidates first, an earlier one kept on ties. An empty path when none
  /// won. `link_rate` entries must be >= 0: a candidate stops being costed
  /// once its partial cost reaches the best so far.
  [[nodiscard]] Path pick(RoutingPolicy policy, std::span<const Path> slots, Candidates c,
                          std::span<const double> link_rate) const;

  /// Cost used for comparisons: hops + congestion_weight * sum(util).
  [[nodiscard]] double path_cost(const Path& p, std::span<const double> link_rate,
                                 bool non_minimal) const;

  [[nodiscard]] const RoutingParams& params() const noexcept { return params_; }

 private:
  [[nodiscard]] Path sample_minimal(RouterId src, RouterId dst, Rng& rng) const;
  [[nodiscard]] Path sample_valiant(RouterId src, RouterId dst, Rng& rng) const;

  const Topology* topo_;
  RoutingParams params_;
};

}  // namespace dfv::net
