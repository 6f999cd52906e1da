// Packet-level discrete-event simulator for the dragonfly.
//
// This is the high-fidelity engine: every packet is injected, routed
// (path chosen per-packet at injection using current queue backlogs,
// which approximates Cray's per-hop adaptive routing), serialized over
// each link, and delivered. It is used to validate the flow-level model
// and to reproduce the classic dragonfly routing results (minimal
// routing collapses under adversarial group-to-group traffic; UGAL
// tracks minimal under uniform traffic and Valiant under adversarial).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "net/synthetic.hpp"
#include "net/traffic.hpp"

namespace dfv::net {

struct PacketSimParams {
  RoutingPolicy policy = RoutingPolicy::Ugal;
  RoutingParams routing;
  int packet_flits = 4;      ///< flits per packet
  double flit_bytes = 16.0;  ///< bytes per flit
};

/// Aggregate results of one DES run.
struct PacketStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  double sim_time = 0.0;            ///< time of last delivery [s]
  double mean_latency = 0.0;        ///< seconds
  double p99_latency = 0.0;         ///< seconds
  double mean_hops = 0.0;
  double delivered_bytes = 0.0;
  double throughput = 0.0;          ///< delivered bytes / sim_time [bytes/s]
  std::vector<double> router_flits;        ///< flits forwarded per router
  std::vector<double> router_stall_cycles; ///< queueing delay in cycles per router
};

/// Event-driven packet simulator over a Topology.
class PacketSim {
 public:
  PacketSim(const Topology& topo, PacketSimParams params, std::uint64_t seed);

  /// Queue a packet for injection at absolute time `t` (seconds).
  void inject(double t, RouterId src, RouterId dst);

  /// Process all events; returns aggregate statistics.
  [[nodiscard]] PacketStats run();

  /// Convenience driver: inject generate_synthetic's packets, then run.
  [[nodiscard]] PacketStats run_synthetic(TrafficPattern pattern, double offered_load,
                                          int packets_per_router);

 private:
  struct Pending {
    double time = 0.0;       ///< next event time for this packet
    std::uint32_t id = 0;    ///< index into packets_
    bool operator>(const Pending& o) const noexcept { return time > o.time; }
  };
  struct Packet {
    RouterId src = kInvalidRouter;
    RouterId dst = kInvalidRouter;
    double inject_time = 0.0;
    LinkList path;  ///< chosen when the packet enters the network
    std::uint16_t hop = 0;
    bool routed = false;
  };
  using EventQueue =
      std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>;

  const Topology* topo_;
  PacketSimParams params_;
  PathChooser chooser_;
  Rng rng_;
  std::vector<Packet> packets_;
  std::vector<double> link_free_;   ///< absolute time each link becomes idle
  std::vector<double> queue_rate_;  ///< backlog estimate handed to the chooser
  PacketStats stats_;
  EventQueue pending_heap_;
};

}  // namespace dfv::net
