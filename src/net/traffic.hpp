// Traffic demands and load containers shared by the flow-level model,
// the packet-level DES, and the monitoring layer.
#pragma once

#include <vector>

#include "net/config.hpp"
#include "net/topology.hpp"

namespace dfv::net {

/// One router-to-router transfer demand.
struct Demand {
  RouterId src = kInvalidRouter;
  RouterId dst = kInvalidRouter;
  double bytes = 0.0;
};

/// Sustained traffic rates (bytes/second) over directed links and router
/// endpoints. Used for *background* load that persists across many steps.
struct RateLoads {
  std::vector<double> link_rate;    ///< per directed link
  std::vector<double> inject_rate;  ///< per router, NIC -> router
  std::vector<double> eject_rate;   ///< per router, router -> NIC

  void resize(const Topology& topo) {
    link_rate.assign(std::size_t(topo.num_links()), 0.0);
    inject_rate.assign(std::size_t(topo.config().num_routers()), 0.0);
    eject_rate.assign(std::size_t(topo.config().num_routers()), 0.0);
  }
  void clear() {
    link_rate.assign(link_rate.size(), 0.0);
    inject_rate.assign(inject_rate.size(), 0.0);
    eject_rate.assign(eject_rate.size(), 0.0);
  }
  void add_scaled(const RateLoads& other, double f) {
    for (std::size_t i = 0; i < link_rate.size(); ++i) link_rate[i] += f * other.link_rate[i];
    for (std::size_t i = 0; i < inject_rate.size(); ++i) {
      inject_rate[i] += f * other.inject_rate[i];
      eject_rate[i] += f * other.eject_rate[i];
    }
  }
};

/// Byte totals accumulated over one application step (instantaneous
/// transfers, converted to utilizations with the step duration).
///
/// A step touches a few thousand of a machine's links, so link bytes are
/// added through add_link(), which records each link it raises from 0, and
/// clear() zeroes only those. A link written directly through
/// `link_bytes` is not recorded: clear() leaves it as it is.
struct ByteLoads {
  std::vector<double> link_bytes;
  std::vector<double> inject_bytes;
  std::vector<double> eject_bytes;
  std::vector<LinkId> touched_links;  ///< links add_link() raised from 0

  void resize(const Topology& topo) {
    link_bytes.assign(std::size_t(topo.num_links()), 0.0);
    inject_bytes.assign(std::size_t(topo.config().num_routers()), 0.0);
    eject_bytes.assign(std::size_t(topo.config().num_routers()), 0.0);
    touched_links.clear();
  }
  void add_link(LinkId e, double bytes) {
    double& v = link_bytes[std::size_t(e)];
    if (v == 0.0) touched_links.push_back(e);
    v += bytes;
  }
  void clear() {
    for (LinkId e : touched_links) link_bytes[std::size_t(e)] = 0.0;
    touched_links.clear();
    inject_bytes.assign(inject_bytes.size(), 0.0);
    eject_bytes.assign(eject_bytes.size(), 0.0);
  }
};

}  // namespace dfv::net
