// Synthetic traffic shared by the two packet-level engines (PacketSim and
// VcPacketSim): the arrival and destination generator, and the delivery
// summary both engines report.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/topology.hpp"

namespace dfv::net {

/// Synthetic traffic patterns for throughput/latency studies.
enum class TrafficPattern : std::uint8_t {
  Uniform,           ///< destination router uniform over the system
  AdversarialShift,  ///< destination in group (g+1) mod G: the worst case
                     ///< for minimal dragonfly routing
  Hotspot,           ///< 20% of traffic to one router, rest uniform
};

[[nodiscard]] const char* to_string(TrafficPattern p) noexcept;

/// Called once per generated packet: inject at absolute time `t` [s].
using InjectFn = std::function<void(double t, RouterId src, RouterId dst)>;

/// Generate `packets_per_router` packets per router, router by router,
/// with exponential inter-arrival times targeting `offered_load` (a
/// fraction of one green link's bandwidth per router, in packets of
/// `packet_bytes`) and destinations drawn by `pattern`. All draws come
/// from `rng`; `inject` runs after each packet's draws, so an engine may
/// draw from the same Rng inside it and keep one deterministic stream.
void generate_synthetic(const Topology& topo, TrafficPattern pattern, double offered_load,
                        int packets_per_router, double packet_bytes, Rng& rng,
                        const InjectFn& inject);

/// Fill the summary fields an engine's stats share (mean and p99 latency,
/// mean hops, throughput = delivered bytes / sim_time) from the latencies
/// of its delivered packets; fields stay zero when nothing was delivered.
template <class Stats>
void summarize_delivery(Stats& s, std::span<const double> latencies, double total_hops,
                        double delivered_bytes) {
  if (!latencies.empty()) {
    s.mean_latency = stats::mean(latencies);
    s.p99_latency = stats::percentile(latencies, 0.99);
    s.mean_hops = total_hops / double(latencies.size());
  }
  if (s.sim_time > 0.0) s.throughput = delivered_bytes / s.sim_time;
}

}  // namespace dfv::net
