// Maps network state (background traffic rates + the instrumented job's
// per-step byte totals) to Aries-style hardware counter deltas.
//
// This plays the role of the router hardware itself: flits are counted
// from bytes crossing tiles; stall-cycle counters follow the queueing-
// style stall_fraction() of the flow model, applied to per-link
// utilizations over the step interval.
#pragma once

#include <span>

#include "mon/counters.hpp"
#include "net/flow_model.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

namespace dfv::mon {

struct CounterModelParams {
  /// Fraction of endpoint traffic on the response VC class (VC4):
  /// rendezvous replies, RMA get responses, acks.
  double response_fraction = 0.25;
  /// Weight of incoming vs. outgoing link congestion in RT stall counters
  /// (back-pressure shows up on both sides of a loaded tile).
  double in_stall_weight = 0.6;
  double out_stall_weight = 0.4;
  /// Column-buffer stalls couple endpoint and transit congestion.
  double cb_endpoint_weight = 0.5;
  double cb_transit_weight = 0.2;
};

/// Per-router Aries counter synthesis for one measurement interval.
class CounterModel {
 public:
  /// Throws ContractError unless every weight is finite and >= 0 and
  /// response_fraction lies in [0, 1].
  explicit CounterModel(const net::Topology& topo, CounterModelParams params = {});

  /// Utilization of directed link `e` over an interval of `dt` seconds:
  /// (background rate + job bytes / dt) / capacity.
  [[nodiscard]] double link_utilization(net::LinkId e, const net::RateLoads& bg,
                                        const net::ByteLoads& job, double dt) const;

  /// Counter deltas for router `r` over an interval of `dt` seconds.
  [[nodiscard]] CounterVec router_counters(net::RouterId r, const net::RateLoads& bg,
                                           const net::ByteLoads& job, double dt) const;

  /// Sum of router_counters over a set of routers (AriesNCL-style per-job
  /// collection: a user may only read counters of routers attached to the
  /// job's own nodes — §III-C of the paper). Runs aggregate_chunk over
  /// every chunk on the pool, then combine().
  [[nodiscard]] CounterVec aggregate(std::span<const net::RouterId> routers,
                                     const net::RateLoads& bg, const net::ByteLoads& job,
                                     double dt) const;

  /// Routers per chunk of aggregate(): chunk c covers routers
  /// [c * kAggregateGrain, (c + 1) * kAggregateGrain).
  static constexpr std::size_t kAggregateGrain = 8;

  /// Chunk `c` of aggregate(): router_counters summed over the chunk's
  /// routers in order, from zero.
  [[nodiscard]] CounterVec aggregate_chunk(std::size_t c,
                                           std::span<const net::RouterId> routers,
                                           const net::RateLoads& bg,
                                           const net::ByteLoads& job, double dt) const;

  /// aggregate()'s finish: chunk partials summed in chunk order, from zero.
  [[nodiscard]] static CounterVec combine(std::span<const CounterVec> partials) noexcept;

  [[nodiscard]] const net::Topology& topology() const noexcept { return *topo_; }
  [[nodiscard]] const CounterModelParams& params() const noexcept { return params_; }

 private:
  const net::Topology* topo_;
  CounterModelParams params_;
};

}  // namespace dfv::mon
