#include "net/synthetic.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dfv::net {

const char* to_string(TrafficPattern p) noexcept {
  switch (p) {
    case TrafficPattern::Uniform: return "uniform";
    case TrafficPattern::AdversarialShift: return "adversarial-shift";
    case TrafficPattern::Hotspot: return "hotspot";
  }
  return "?";
}

void generate_synthetic(const Topology& topo, TrafficPattern pattern, double offered_load,
                        int packets_per_router, double packet_bytes, Rng& rng,
                        const InjectFn& inject) {
  DFV_CHECK(offered_load > 0.0);
  const auto& cfg = topo.config();
  const int R = cfg.num_routers();
  const int G = cfg.groups;
  const double rate = offered_load * cfg.green_bw / packet_bytes;  // packets/s per router
  const RouterId hotspot = RouterId(R / 2);

  for (RouterId src = 0; src < R; ++src) {
    double t = 0.0;
    for (int i = 0; i < packets_per_router; ++i) {
      t += rng.exponential(rate);
      RouterId dst = src;
      switch (pattern) {
        case TrafficPattern::Uniform:
          while (dst == src) dst = RouterId(rng.uniform_index(std::uint64_t(R)));
          break;
        case TrafficPattern::AdversarialShift: {
          const GroupId tg = GroupId((topo.group_of(src) + 1) % std::max(1, G));
          dst = RouterId(tg * cfg.routers_per_group() +
                         int(rng.uniform_index(std::uint64_t(cfg.routers_per_group()))));
          break;
        }
        case TrafficPattern::Hotspot:
          if (rng.bernoulli(0.2)) {
            dst = hotspot == src ? RouterId((hotspot + 1) % R) : hotspot;
          } else {
            while (dst == src) dst = RouterId(rng.uniform_index(std::uint64_t(R)));
          }
          break;
      }
      inject(t, src, dst);
    }
  }
}

}  // namespace dfv::net
