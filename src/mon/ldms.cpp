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

  // All four aggregates below are chunked reductions combined in chunk
  // order, so each sum is bit-identical for any thread count.
  using Acc = std::array<double, 4>;
  const auto add4 = [](Acc a, const Acc& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    return a;
  };

  // ---- io aggregate: per-router counters over the I/O router set -------
  const Acc io = exec::parallel_reduce(
      0, io_routers_.size(), 4, Acc{},
      [&](std::size_t lo, std::size_t hi) {
        Acc p{};
        for (std::size_t i = lo; i < hi; ++i) {
          const CounterVec v = model_->router_counters(io_routers_[i], bg, job, dt);
          p[0] += v[size_t(Counter::RT_FLIT_TOT)];
          p[1] += v[size_t(Counter::RT_RB_STL)];
          p[2] += v[size_t(Counter::PT_FLIT_TOT)];
          p[3] += v[size_t(Counter::PT_PKT_TOT)];
        }
        return p;
      },
      add4);
  for (std::size_t i = 0; i < io.size(); ++i) f.io[i] = io[i];

  // ---- sys aggregate: system totals (one pass over links + router
  // endpoint arrays) minus the instrumented job's routers ----------------
  // Capacities come from the link-class ranges, which saves loading each
  // link's 32-byte LinkInfo. A link carrying under 0.14 of its capacity has u <= 0.15 even after
  // rounding, so stall_fraction(u) is exactly 0 and its stall term, +0
  // with the finite weights CounterModel enforces, would leave the sum
  // unchanged: such links skip the divisions. Chunk boundaries and the
  // per-element order are those of a plain pass over every link.
  const auto& prm = model_->params();
  const double stall_cycles = cycles * (prm.in_stall_weight + prm.out_stall_weight);
  const auto classes = topo.link_classes();
  const Acc link_tot = exec::parallel_reduce(
      0, std::size_t(topo.num_links()), 16384, Acc{},
      [&](std::size_t lo, std::size_t hi) {
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
      },
      add4);
  const double tot_rt_flit = link_tot[0], tot_rt_stl = link_tot[1];
  const std::size_t R = std::size_t(cfg.num_routers());
  const double tot_pt_flit = exec::parallel_reduce(
      0, R, 512, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double p = 0.0;
        for (std::size_t r = lo; r < hi; ++r)
          p += (bg.inject_rate[r] * dt + job.inject_bytes[r] + bg.eject_rate[r] * dt +
                job.eject_bytes[r]) /
               flit;
        return p;
      },
      [](double a, double b) { return a + b; });

  const Acc job_tot = exec::parallel_reduce(
      0, job_routers.size(), 8, Acc{},
      [&](std::size_t lo, std::size_t hi) {
        Acc p{};
        for (std::size_t i = lo; i < hi; ++i) {
          const CounterVec v = model_->router_counters(job_routers[i], bg, job, dt);
          p[0] += v[size_t(Counter::RT_FLIT_TOT)];
          p[1] += v[size_t(Counter::RT_RB_STL)];
          p[2] += v[size_t(Counter::PT_FLIT_TOT)];
        }
        return p;
      },
      add4);
  const double job_rt_flit = job_tot[0], job_rt_stl = job_tot[1], job_pt_flit = job_tot[2];

  f.sys[0] = std::max(0.0, tot_rt_flit - job_rt_flit);
  f.sys[1] = std::max(0.0, tot_rt_stl - job_rt_stl);
  f.sys[2] = std::max(0.0, tot_pt_flit - job_pt_flit);
  f.sys[3] = f.sys[2] / cfg.flits_per_packet;
  return f;
}

}  // namespace dfv::mon
