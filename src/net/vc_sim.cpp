#include "net/vc_sim.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dfv::net {

double VcStats::total_stall_cycles() const {
  double s = 0.0;
  for (double v : stall_cycles_rq) s += v;
  for (double v : stall_cycles_rs) s += v;
  return s;
}

VcPacketSim::VcPacketSim(const Topology& topo, VcSimParams params, std::uint64_t seed)
    : topo_(&topo), params_(params), rng_(seed) {
  DFV_CHECK(params_.vcs >= 1 && params_.buffer_flits >= params_.packet_flits);
  link_free_.assign(std::size_t(topo.num_links()), 0.0);
  buffer_occupancy_.assign(std::size_t(topo.num_links()),
                           std::vector<int>(std::size_t(params_.vcs), 0));
  waiters_.assign(std::size_t(topo.num_links()), {});
  stats_.stall_cycles_rq.assign(std::size_t(topo.config().num_routers()), 0.0);
  stats_.stall_cycles_rs.assign(std::size_t(topo.config().num_routers()), 0.0);
}

void VcPacketSim::inject(double t, RouterId src, RouterId dst) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.at = src;
  p.inject_time = t;
  p.response = rng_.bernoulli(params_.response_fraction);
  packets_.push_back(p);
  ++stats_.injected;
  events_.push(Event{t, std::uint32_t(packets_.size() - 1), 0});
}

int VcPacketSim::credits(LinkId link, int vc) const {
  return params_.buffer_flits - buffer_occupancy_[std::size_t(link)][std::size_t(vc)];
}

void VcPacketSim::next_hop_candidates(RouterId at, RouterId target, LinkId out[2],
                                      int& n) {
  n = 0;
  if (at == target) return;
  const GroupId ga = topo_->group_of(at);
  const GroupId gt = topo_->group_of(target);
  const int row_a = topo_->row_of(at), col_a = topo_->col_of(at);

  if (ga == gt) {
    const int row_t = topo_->row_of(target), col_t = topo_->col_of(target);
    if (row_a == row_t) {
      out[n++] = topo_->green_link(ga, row_a, col_a, col_t);
    } else if (col_a == col_t) {
      out[n++] = topo_->black_link(ga, col_a, row_a, row_t);
    } else {
      out[n++] = topo_->green_link(ga, row_a, col_a, col_t);
      out[n++] = topo_->black_link(ga, col_a, row_a, row_t);
    }
    return;
  }

  // Inter-group: take a blue link to gt if this router terminates one;
  // otherwise head toward the gateway of a sampled copy.
  const int K = topo_->blue_copies();
  for (int k = 0; k < K && n < 2; ++k)
    if (topo_->gateway(ga, gt, k) == at) out[n++] = topo_->blue_link(ga, gt, k);
  if (n > 0) return;

  for (int attempt = 0; attempt < 2; ++attempt) {
    const int k = int(rng_.uniform_index(std::uint64_t(K)));
    const RouterId gw = topo_->gateway(ga, gt, k);
    if (gw == at) continue;  // handled above
    const int row_g = topo_->row_of(gw), col_g = topo_->col_of(gw);
    LinkId step;
    if (row_a == row_g) {
      step = topo_->green_link(ga, row_a, col_a, col_g);
    } else if (col_a == col_g) {
      step = topo_->black_link(ga, col_a, row_a, row_g);
    } else {
      step = rng_.bernoulli(0.5) ? topo_->green_link(ga, row_a, col_a, col_g)
                                 : topo_->black_link(ga, col_a, row_a, row_g);
    }
    if (n == 0 || out[0] != step) out[n++] = step;
  }
}

bool VcPacketSim::try_advance(std::uint32_t id, double now) {
  Packet& p = packets_[id];

  // Injection-time decision: Valiant always detours inter-group traffic;
  // UGAL detours when the minimal first hops are credit-starved.
  if (!p.routed_entry) {
    p.routed_entry = true;
    const GroupId gs = topo_->group_of(p.src), gd = topo_->group_of(p.dst);
    const int G = topo_->config().groups;
    if (gs != gd && G > 2) {
      bool go_valiant = false;
      if (params_.policy == RoutingPolicy::Valiant) {
        go_valiant = true;
      } else if (params_.policy == RoutingPolicy::Ugal) {
        LinkId cand[2];
        int n = 0;
        next_hop_candidates(p.at, p.dst, cand, n);
        int best_credits = 0;
        for (int i = 0; i < n; ++i)
          best_credits = std::max(best_credits, credits(cand[i], 0));
        go_valiant = best_credits < params_.packet_flits;
      }
      if (go_valiant) {
        GroupId via = GroupId(rng_.uniform_index(std::uint64_t(G)));
        for (int tries = 0; (via == gs || via == gd) && tries < 8; ++tries)
          via = GroupId(rng_.uniform_index(std::uint64_t(G)));
        if (via != gs && via != gd) p.via_group = via;
      }
    }
  }

  // Resolve the Valiant phase.
  if (p.via_group >= 0 && topo_->group_of(p.at) == p.via_group) p.via_group = -1;
  const RouterId target =
      p.via_group >= 0 ? topo_->gateway(p.via_group, topo_->group_of(p.dst), 0) : p.dst;

  auto charge_stall = [&](double until) {
    if (p.blocked_since >= 0.0) {
      const double cycles = (until - p.blocked_since) * topo_->config().clock_hz;
      (p.response ? stats_.stall_cycles_rs : stats_.stall_cycles_rq)[std::size_t(p.at)] +=
          std::max(0.0, cycles);
      p.blocked_since = -1.0;
    }
  };

  if (p.at == p.dst) {
    charge_stall(now);
    // Eject: release the held input buffer and wake upstream waiters.
    if (p.held_link != kInvalidLink) {
      buffer_occupancy_[std::size_t(p.held_link)][std::size_t(p.held_vc)] -=
          params_.packet_flits;
      wake_waiters(p.held_link, p.held_vc, now);
      p.held_link = kInvalidLink;
    }
    latencies_.push_back(now - p.inject_time);
    total_hops_ += double(p.hop);
    ++stats_.delivered;
    stats_.sim_time = std::max(stats_.sim_time, now);
    return true;
  }

  LinkId cand[2];
  int n = 0;
  next_hop_candidates(p.at, target, cand, n);
  DFV_CHECK_MSG(n > 0, "router " << p.at << " has no next hop toward " << target);

  // Adaptive pick: most credits on the packet's next VC, ties by link_free.
  const int vc = std::min<int>(p.hop, params_.vcs - 1);
  int best = -1;
  for (int i = 0; i < n; ++i) {
    if (credits(cand[i], vc) < params_.packet_flits) continue;
    if (best < 0 || credits(cand[i], vc) > credits(cand[best], vc) ||
        (credits(cand[i], vc) == credits(cand[best], vc) &&
         link_free_[std::size_t(cand[i])] < link_free_[std::size_t(cand[best])]))
      best = i;
  }

  if (best < 0) {
    // Credit-starved: block on both candidates and wait for a release.
    // The registered seq invalidates these entries if the packet advances
    // through the other candidate first.
    if (p.blocked_since < 0.0) p.blocked_since = now;
    for (int i = 0; i < n; ++i)
      waiters_[std::size_t(cand[i])].push_back(Event{now, id, p.seq, vc});
    return false;
  }

  const LinkId e = cand[best];
  const LinkInfo& li = topo_->link(e);
  const double ser = double(params_.packet_flits) * params_.flit_bytes / li.capacity;
  const double depart = std::max(now, link_free_[std::size_t(e)]);
  if (depart > now + ser * 0.01 && p.blocked_since < 0.0) {
    // Link busy (serialization): treat the wait as a stall too.
    p.blocked_since = now;
  }
  charge_stall(depart);
  link_free_[std::size_t(e)] = depart + ser;

  // Reserve the downstream buffer now (credit consumed), release ours.
  buffer_occupancy_[std::size_t(e)][std::size_t(vc)] += params_.packet_flits;
  if (p.held_link != kInvalidLink) {
    buffer_occupancy_[std::size_t(p.held_link)][std::size_t(p.held_vc)] -= params_.packet_flits;
    wake_waiters(p.held_link, p.held_vc, depart);
  }
  p.held_link = e;
  p.held_vc = vc;
  p.at = li.to;
  p.hop = std::uint8_t(std::min<int>(p.hop + 1, 255));
  ++p.seq;
  events_.push(Event{depart + ser + li.latency, id, p.seq});
  return true;
}

void VcPacketSim::wake_waiters(LinkId link, int vc, double now) {
  // Exactly one packet's worth of credits was released on (link, vc):
  // waking every blocked packet is a thundering herd (millions of no-op
  // events under congestion). Wake a bounded set: up to 3 valid waiters
  // on the matching VC, plus 1 on any VC as a stranding safety valve.
  auto& w = waiters_[std::size_t(link)];
  if (w.empty()) return;
  int matched = 0, any = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const Event& e = w[i];
    if (packets_[e.packet].seq != e.seq) continue;  // stale: drop
    bool wake = false;
    if (e.vc == vc && matched < 3) {
      wake = true;
      ++matched;
    } else if (any < 1) {
      wake = true;
      ++any;
    }
    if (wake)
      events_.push(Event{now, e.packet, e.seq, e.vc});
    else
      w[kept++] = e;
  }
  w.resize(kept);
}

VcStats VcPacketSim::run() {
  while (!events_.empty()) {
    const Event ev = events_.top();
    events_.pop();
    if (packets_[ev.packet].seq != ev.seq) continue;  // stale wake-up
    (void)try_advance(ev.packet, ev.time);
  }
  stats_.deadlocked = stats_.delivered < stats_.injected;
  summarize_delivery(stats_, latencies_, total_hops_,
                     double(stats_.delivered) * params_.packet_flits * params_.flit_bytes);
  return stats_;
}

VcStats VcPacketSim::run_synthetic(TrafficPattern pattern, double offered_load,
                                   int packets_per_router) {
  generate_synthetic(*topo_, pattern, offered_load, packets_per_router,
                     double(params_.packet_flits) * params_.flit_bytes, rng_,
                     [this](double t, RouterId src, RouterId dst) { inject(t, src, dst); });
  return run();
}

}  // namespace dfv::net
