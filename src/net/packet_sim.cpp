#include "net/packet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace dfv::net {

PacketSim::PacketSim(const Topology& topo, PacketSimParams params, std::uint64_t seed)
    : topo_(&topo), params_(params), chooser_(topo, params.routing), rng_(seed) {
  link_free_.assign(std::size_t(topo.num_links()), 0.0);
  queue_rate_.assign(std::size_t(topo.num_links()), 0.0);
  stats_.router_flits.assign(std::size_t(topo.config().num_routers()), 0.0);
  stats_.router_stall_cycles.assign(std::size_t(topo.config().num_routers()), 0.0);
}

void PacketSim::inject(double t, RouterId src, RouterId dst) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.inject_time = t;
  packets_.push_back(std::move(p));
  ++stats_.injected;
  pending_heap_.push(Pending{t, std::uint32_t(packets_.size() - 1)});
}

PacketStats PacketSim::run() {
  const double flit_s = params_.flit_bytes;
  const double clock = topo_->config().clock_hz;
  std::vector<double> delivered_latencies;
  delivered_latencies.reserve(packets_.size());
  double total_hops = 0.0;

  while (!pending_heap_.empty()) {
    const Pending ev = pending_heap_.top();
    pending_heap_.pop();
    Packet& p = packets_[ev.id];
    const double now = ev.time;

    if (!p.routed) {
      // Path chosen per-packet when it enters the network, against the
      // *current* backlog state — the approximation of Aries' per-hop
      // back-pressure-driven adaptive choice.
      p.path = chooser_.choose(p.src, p.dst, params_.policy, queue_rate_, rng_).links;
      p.routed = true;
    }

    if (p.hop >= p.path.size()) {
      // Arrived at destination router: eject.
      const double lat = now - p.inject_time;
      delivered_latencies.push_back(lat);
      total_hops += double(p.path.size());
      ++stats_.delivered;
      stats_.delivered_bytes += double(params_.packet_flits) * flit_s;
      stats_.sim_time = std::max(stats_.sim_time, now);
      continue;
    }

    const LinkId e = p.path[p.hop];
    const LinkInfo& li = topo_->link(e);
    const double ser = double(params_.packet_flits) * flit_s / li.capacity;
    const double depart = std::max(now, link_free_[std::size_t(e)]);
    link_free_[std::size_t(e)] = depart + ser;
    // Backlog expressed as queued packets, scaled so PathChooser's
    // normalized cost (load/capacity * congestion_weight) charges about
    // one hop-equivalent per queued packet — the UGAL comparison.
    const double queued_packets = std::max(0.0, link_free_[std::size_t(e)] - now) / ser;
    queue_rate_[std::size_t(e)] =
        queued_packets * li.capacity / chooser_.params().congestion_weight;

    const double wait = depart - now;
    if (wait > 0.0) stats_.router_stall_cycles[std::size_t(li.from)] += wait * clock;
    stats_.router_flits[std::size_t(li.to)] += double(params_.packet_flits);

    p.hop += 1;
    pending_heap_.push(Pending{depart + ser + li.latency, ev.id});
  }

  summarize_delivery(stats_, delivered_latencies, total_hops, stats_.delivered_bytes);
  return stats_;
}

PacketStats PacketSim::run_synthetic(TrafficPattern pattern, double offered_load,
                                     int packets_per_router) {
  generate_synthetic(*topo_, pattern, offered_load, packets_per_router,
                     double(params_.packet_flits) * params_.flit_bytes, rng_,
                     [this](double t, RouterId src, RouterId dst) { inject(t, src, dst); });
  return run();
}

}  // namespace dfv::net
