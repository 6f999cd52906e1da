#include "mon/ldms.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "exec/exec.hpp"

namespace dfv::mon {

std::vector<net::RouterId> make_default_io_routers(const net::Topology& topo,
                                                   int per_group) {
  DFV_CHECK(per_group >= 1);
  const auto& cfg = topo.config();
  std::vector<net::RouterId> io;
  io.reserve(std::size_t(cfg.groups * per_group));
  for (net::GroupId g = 0; g < cfg.groups; ++g)
    for (int i = 0; i < per_group; ++i) {
      // Spread service routers across rows within the group.
      const int idx = (i * cfg.routers_per_group()) / per_group + cfg.row_size / 2;
      io.push_back(net::RouterId(g * cfg.routers_per_group() +
                                 idx % cfg.routers_per_group()));
    }
  std::sort(io.begin(), io.end());
  io.erase(std::unique(io.begin(), io.end()), io.end());
  return io;
}

LdmsSampler::LdmsSampler(const CounterModel& model, std::vector<net::RouterId> io_routers)
    : model_(&model), io_routers_(std::move(io_routers)) {
  std::sort(io_routers_.begin(), io_routers_.end());
}

LdmsFeatures LdmsSampler::sample(const net::RateLoads& bg, const net::ByteLoads& job,
                                 double dt,
                                 std::span<const net::RouterId> job_routers) const {
  const net::Topology& topo = model_->topology();
  const auto& cfg = topo.config();
  const double flit = cfg.flit_bytes;
  const double cycles = dt * cfg.clock_hz;
  LdmsFeatures f;

  // Four chunked reductions: the I/O routers' counters (io), then, for
  // sys, system totals over every link and every router's endpoint arrays
  // minus the instrumented job's routers' counters. They run as one pool
  // region over their concatenated chunk spaces, each reduction at its own
  // grain, and each one's partials combine serially in chunk order, so
  // every sum is bit-identical for any thread count.
  using Acc = std::array<double, 4>;
  const auto counters = [&](std::span<const net::RouterId> routers, std::size_t lo,
                            std::size_t hi) {
    Acc p{};
    for (std::size_t i = lo; i < hi; ++i) {
      const CounterVec v = model_->router_counters(routers[i], bg, job, dt);
      p[0] += v[size_t(Counter::RT_FLIT_TOT)];
      p[1] += v[size_t(Counter::RT_RB_STL)];
      p[2] += v[size_t(Counter::PT_FLIT_TOT)];
      p[3] += v[size_t(Counter::PT_PKT_TOT)];
    }
    return p;
  };

  // The link pass reads capacities from the link-class ranges, which
  // saves loading each link's 32-byte LinkInfo. A link carrying under 0.14
  // of its capacity has u <= 0.15 even after rounding, so stall_fraction(u)
  // is exactly 0 and its stall term, +0 with the finite weights
  // CounterModel enforces, would leave the sum unchanged: such links skip
  // the divisions. Chunk boundaries and the per-element order are those of
  // a plain pass over every link.
  const auto& prm = model_->params();
  const double stall_cycles = cycles * (prm.in_stall_weight + prm.out_stall_weight);
  const auto classes = topo.link_classes();
  const auto links = [&](std::size_t lo, std::size_t hi) {
    Acc p{};
    for (const net::LinkClassRange& cls : classes) {
      const std::size_t a = std::max(lo, std::size_t(cls.begin));
      const std::size_t b = std::min(hi, std::size_t(cls.end));
      const double cap_dt = cls.capacity * dt;
      const double quiet_bytes = 0.14 * cls.capacity * dt;
      for (std::size_t idx = a; idx < b; ++idx) {
        const double bytes = bg.link_rate[idx] * dt + job.link_bytes[idx];
        if (bytes <= 0.0) continue;
        p[0] += bytes / flit;
        if (bytes < quiet_bytes) continue;
        p[1] += stall_cycles * net::stall_fraction(bytes / cap_dt);
      }
    }
    return p;
  };
  const auto endpoints = [&](std::size_t lo, std::size_t hi) {
    Acc p{};
    for (std::size_t r = lo; r < hi; ++r)
      p[0] += (bg.inject_rate[r] * dt + job.inject_bytes[r] + bg.eject_rate[r] * dt +
               job.eject_bytes[r]) /
              flit;
    return p;
  };

  enum Part : std::size_t { kIo, kLinks, kEndpoints, kJob, kParts };
  const std::array<std::size_t, kParts> size = {io_routers_.size(),
                                                std::size_t(topo.num_links()),
                                                std::size_t(cfg.num_routers()),
                                                job_routers.size()};
  constexpr std::array<std::size_t, kParts> grain = {4, 16384, 512, 8};
  std::array<std::size_t, kParts + 1> first{};  // each part's first task
  for (std::size_t k = 0; k < kParts; ++k)
    first[k + 1] = first[k] + exec::num_chunks(size[k], grain[k]);
  std::vector<Acc> partial(first[kParts]);
  exec::parallel_for(0, first[kParts], 1, [&](std::size_t t, std::size_t) {
    std::size_t k = 0;
    while (t >= first[k + 1]) ++k;
    const std::size_t lo = (t - first[k]) * grain[k];
    const std::size_t hi = std::min(lo + grain[k], size[k]);
    switch (k) {
      case kIo: partial[t] = counters(io_routers_, lo, hi); break;
      case kLinks: partial[t] = links(lo, hi); break;
      case kEndpoints: partial[t] = endpoints(lo, hi); break;
      default: partial[t] = counters(job_routers, lo, hi); break;
    }
  });
  const auto total = [&](std::size_t k) {
    Acc acc{};
    for (std::size_t t = first[k]; t < first[k + 1]; ++t)
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += partial[t][i];
    return acc;
  };

  const Acc io = total(kIo);
  for (std::size_t i = 0; i < io.size(); ++i) f.io[i] = io[i];
  const Acc link_tot = total(kLinks), job_tot = total(kJob);
  const double tot_rt_flit = link_tot[0], tot_rt_stl = link_tot[1];
  const double tot_pt_flit = total(kEndpoints)[0];
  const double job_rt_flit = job_tot[0], job_rt_stl = job_tot[1], job_pt_flit = job_tot[2];

  f.sys[0] = std::max(0.0, tot_rt_flit - job_rt_flit);
  f.sys[1] = std::max(0.0, tot_rt_stl - job_rt_stl);
  f.sys[2] = std::max(0.0, tot_pt_flit - job_pt_flit);
  f.sys[3] = f.sys[2] / cfg.flits_per_packet;
  return f;
}

}  // namespace dfv::mon
