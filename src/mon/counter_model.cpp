#include "mon/counter_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "exec/exec.hpp"

namespace dfv::mon {

CounterModel::CounterModel(const net::Topology& topo, CounterModelParams params)
    : topo_(&topo), params_(params) {
  for (const double w : {params_.in_stall_weight, params_.out_stall_weight,
                         params_.cb_endpoint_weight, params_.cb_transit_weight})
    DFV_CHECK_MSG(std::isfinite(w) && w >= 0.0,
                  "counter weights must be finite and non-negative, got " << w);
  DFV_CHECK(params_.response_fraction >= 0.0 && params_.response_fraction <= 1.0);
}

double CounterModel::link_utilization(net::LinkId e, const net::RateLoads& bg,
                                      const net::ByteLoads& job, double dt) const {
  const auto idx = std::size_t(e);
  const double rate = bg.link_rate[idx] + job.link_bytes[idx] / dt;
  return rate / topo_->link_capacity(e);
}

CounterVec CounterModel::router_counters(net::RouterId r, const net::RateLoads& bg,
                                         const net::ByteLoads& job, double dt) const {
  DFV_CHECK(dt > 0.0);
  const auto& cfg = topo_->config();
  const double flit = cfg.flit_bytes;
  const double cycles = dt * cfg.clock_hz;
  CounterVec v = zero_counters();

  // ---- Router (network) tiles: transit traffic ------------------------
  double in_flits = 0.0, in_stall = 0.0, two_x = 0.0, transit_util_sum = 0.0;
  const auto& ins = topo_->in_links(r);
  for (net::LinkId e : ins) {
    const auto idx = std::size_t(e);
    const double bytes = bg.link_rate[idx] * dt + job.link_bytes[idx];
    const double u = bytes / (topo_->link_capacity(e) * dt);
    in_flits += bytes / flit;
    const double sf = net::stall_fraction(u);
    in_stall += params_.in_stall_weight * sf;
    two_x += sf * sf;
    transit_util_sum += std::min(u, 1.5);
  }
  double out_stall = 0.0;
  for (net::LinkId e : topo_->out_links(r)) {
    const double u = link_utilization(e, bg, job, dt);
    out_stall += params_.out_stall_weight * net::stall_fraction(u);
  }
  const double mean_transit_util =
      ins.empty() ? 0.0 : transit_util_sum / double(ins.size());

  v[size_t(Counter::RT_FLIT_TOT)] = in_flits;
  v[size_t(Counter::RT_PKT_TOT)] = in_flits / cfg.flits_per_packet;
  v[size_t(Counter::RT_RB_STL)] = cycles * (in_stall + out_stall);
  v[size_t(Counter::RT_RB_2X_USG)] = cycles * 0.1 * std::min(two_x, 16.0);

  // ---- Processor tiles: endpoint traffic -------------------------------
  const double inj = job.inject_bytes[std::size_t(r)] + bg.inject_rate[std::size_t(r)] * dt;
  const double ej = job.eject_bytes[std::size_t(r)] + bg.eject_rate[std::size_t(r)] * dt;
  const double u_inj = inj / (cfg.endpoint_bw * dt);
  const double u_ej = ej / (cfg.endpoint_bw * dt);
  const double rf = params_.response_fraction;

  const double pt_flits = (inj + ej) / flit;
  v[size_t(Counter::PT_FLIT_VC0)] = (1.0 - rf) * pt_flits;
  v[size_t(Counter::PT_FLIT_VC4)] = rf * pt_flits;
  v[size_t(Counter::PT_FLIT_TOT)] = pt_flits;
  v[size_t(Counter::PT_PKT_TOT)] = pt_flits / cfg.flits_per_packet;

  const double sf_inj = net::stall_fraction(u_inj);
  const double sf_ej = net::stall_fraction(u_ej);
  v[size_t(Counter::PT_RB_STL_RQ)] = cycles * sf_inj;
  v[size_t(Counter::PT_RB_STL_RS)] = cycles * sf_ej;
  v[size_t(Counter::PT_CB_STL_RQ)] =
      cycles * (params_.cb_endpoint_weight * sf_inj +
                params_.cb_transit_weight * net::stall_fraction(mean_transit_util));
  v[size_t(Counter::PT_CB_STL_RS)] =
      cycles * (params_.cb_endpoint_weight * sf_ej +
                params_.cb_transit_weight * net::stall_fraction(mean_transit_util));
  v[size_t(Counter::PT_RB_2X_USG)] = cycles * 0.2 * sf_inj * sf_ej +
                                     cycles * 0.05 * std::min(u_inj + u_ej, 2.0);
  return v;
}

CounterVec CounterModel::aggregate(std::span<const net::RouterId> routers,
                                   const net::RateLoads& bg, const net::ByteLoads& job,
                                   double dt) const {
  // Chunked in index order with an ordered combine, so the floating-point
  // sum is bit-identical for any thread count.
  std::vector<CounterVec> part(exec::num_chunks(routers.size(), kAggregateGrain));
  exec::parallel_for(0, part.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) part[c] = aggregate_chunk(c, routers, bg, job, dt);
  });
  return combine(part);
}

CounterVec CounterModel::aggregate_chunk(std::size_t c, std::span<const net::RouterId> routers,
                                         const net::RateLoads& bg, const net::ByteLoads& job,
                                         double dt) const {
  const std::size_t lo = c * kAggregateGrain;
  DFV_CHECK(lo < routers.size());
  const std::size_t hi = std::min(lo + kAggregateGrain, routers.size());
  CounterVec part = zero_counters();
  for (std::size_t i = lo; i < hi; ++i) add_into(part, router_counters(routers[i], bg, job, dt));
  return part;
}

CounterVec CounterModel::combine(std::span<const CounterVec> partials) noexcept {
  CounterVec acc = zero_counters();
  for (const CounterVec& p : partials) add_into(acc, p);
  return acc;
}

}  // namespace dfv::mon
