// Credit-based virtual-channel packet simulator.
//
// The second, higher-fidelity DES: unlike PacketSim (source-routed,
// output-queued, infinite buffers), this engine models what Aries router
// tiles actually do and what the Table II stall counters actually count:
//
//  * per-hop routing: each router picks the next output among minimal
//    candidates by credit availability (Valiant detours decided at
//    injection, as on Cray XC);
//  * finite input buffers per (link, VC) with credit-based flow control —
//    a packet advances only when the downstream buffer has room;
//  * VC climbing (the packet's VC index increases every hop), the
//    standard dragonfly deadlock-avoidance scheme;
//  * stall accounting: cycles a packet spends blocked waiting for credits
//    are charged to the router where it waits, split into request/response
//    classes — the direct analogue of PT/RT_*_STL_RQ/RS.
//
// Used by tests and the buffer/VC ablation bench; the flow model remains
// the campaign engine.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "net/routing.hpp"
#include "net/synthetic.hpp"

namespace dfv::net {

struct VcSimParams {
  RoutingPolicy policy = RoutingPolicy::Ugal;
  int vcs = 8;              ///< virtual channels per link (>= max hops for deadlock freedom)
  int buffer_flits = 48;    ///< input buffer depth per (link, VC)
  int packet_flits = 4;
  double flit_bytes = 16.0;
  /// Fraction of packets on the response class (charged to *_RS stalls).
  double response_fraction = 0.25;
};

struct VcStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  bool deadlocked = false;  ///< events drained with packets still in flight
  double sim_time = 0.0;
  double mean_latency = 0.0;
  double p99_latency = 0.0;
  double mean_hops = 0.0;
  double throughput = 0.0;  ///< delivered bytes / sim_time

  /// Credit-stall cycles charged per router, split by traffic class
  /// (request vs. response) — the VcSim analogue of PT/RT stall counters.
  std::vector<double> stall_cycles_rq;
  std::vector<double> stall_cycles_rs;
  [[nodiscard]] double total_stall_cycles() const;
};

class VcPacketSim {
 public:
  VcPacketSim(const Topology& topo, VcSimParams params, std::uint64_t seed);

  /// Queue a packet for injection at absolute time `t`.
  void inject(double t, RouterId src, RouterId dst);

  /// Process all events.
  [[nodiscard]] VcStats run();

  /// Convenience driver: inject generate_synthetic's packets, then run.
  /// Each inject() draws its response class from the same Rng between
  /// the generator's draws.
  [[nodiscard]] VcStats run_synthetic(TrafficPattern pattern, double offered_load,
                                      int packets_per_router);

 private:
  struct Packet {
    RouterId src = kInvalidRouter;
    RouterId dst = kInvalidRouter;
    GroupId via_group = -1;  ///< Valiant intermediate (-1 = go minimal)
    RouterId at = kInvalidRouter;
    double inject_time = 0.0;
    double blocked_since = -1.0;
    std::uint8_t hop = 0;
    bool response = false;
    bool routed_entry = false;
    LinkId held_link = kInvalidLink;  ///< input buffer currently occupied
    int held_vc = 0;
    std::uint32_t seq = 0;  ///< guards against stale waiter wake-ups
  };
  struct Event {
    double time;
    std::uint32_t packet;
    std::uint32_t seq;
    int vc = 0;  ///< waited-for VC (waiter lists only)
    bool operator>(const Event& o) const noexcept { return time > o.time; }
  };

  /// Minimal next-hop candidates from `at` toward `target` (1 or 2 links).
  void next_hop_candidates(RouterId at, RouterId target, LinkId out[2], int& n);
  /// Credits currently available on (link, vc).
  [[nodiscard]] int credits(LinkId link, int vc) const;
  /// Try to advance a packet; returns true if it moved (or delivered).
  [[nodiscard]] bool try_advance(std::uint32_t id, double now);
  void wake_waiters(LinkId link, int vc, double now);

  const Topology* topo_;
  VcSimParams params_;
  Rng rng_;

  std::vector<Packet> packets_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::vector<double> link_free_;                    ///< serialization availability
  std::vector<std::vector<int>> buffer_occupancy_;   ///< [link][vc] flits held downstream
  std::vector<std::vector<Event>> waiters_;          ///< packets blocked on a link
  VcStats stats_;
  std::vector<double> latencies_;
  double total_hops_ = 0.0;
};

}  // namespace dfv::net
