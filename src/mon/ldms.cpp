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

namespace {

/// Elements per chunk of each part of the system-wide reduction.
constexpr std::array<std::size_t, 3> kGrain = {4, 16384, 512};

}  // namespace

LdmsSampler::LdmsSampler(const CounterModel& model, std::vector<net::RouterId> io_routers)
    : model_(&model), io_routers_(std::move(io_routers)) {
  std::sort(io_routers_.begin(), io_routers_.end());
  const net::Topology& topo = model_->topology();
  size_ = {io_routers_.size(), std::size_t(topo.num_links()),
           std::size_t(topo.config().num_routers())};
  for (std::size_t k = 0; k < kParts; ++k)
    first_[k + 1] = first_[k] + exec::num_chunks(size_[k], kGrain[k]);
}

// The system-wide part is three chunked reductions: the I/O routers'
// counters (io), then, for sys, totals over every link and every router's
// endpoint arrays, from which finish() subtracts the instrumented job's
// routers' counters. Each chunk sums its elements in order from zero, and
// finish() combines each reduction's partials serially in chunk order, so
// every sum is bit-identical for any thread count and any lane running any
// chunk.
LdmsPartial LdmsSampler::system_chunk(std::size_t c, const net::RateLoads& bg,
                                      const net::ByteLoads& job, double dt) const {
  DFV_CHECK(c < system_chunks() && dt > 0.0);
  const net::Topology& topo = model_->topology();
  const auto& cfg = topo.config();
  const double flit = cfg.flit_bytes;
  std::size_t k = 0;
  while (c >= first_[k + 1]) ++k;
  const std::size_t lo = (c - first_[k]) * kGrain[k];
  const std::size_t hi = std::min(lo + kGrain[k], size_[k]);
  LdmsPartial p{};
  switch (k) {
    case kIo:
      for (std::size_t i = lo; i < hi; ++i) {
        const CounterVec v = model_->router_counters(io_routers_[i], bg, job, dt);
        p[0] += v[size_t(Counter::RT_FLIT_TOT)];
        p[1] += v[size_t(Counter::RT_RB_STL)];
        p[2] += v[size_t(Counter::PT_FLIT_TOT)];
        p[3] += v[size_t(Counter::PT_PKT_TOT)];
      }
      break;
    case kLinks: {
      // The link pass reads capacities from the link-class ranges, which
      // saves loading each link's 32-byte LinkInfo. A link carrying under
      // 0.14 of its capacity has u <= 0.15 even after rounding, so
      // stall_fraction(u) is exactly 0 and its stall term, +0 with the
      // finite weights CounterModel enforces, would leave the sum
      // unchanged: such links skip the divisions. Chunk boundaries and the
      // per-element order are those of a plain pass over every link.
      const auto& prm = model_->params();
      const double stall_cycles =
          dt * cfg.clock_hz * (prm.in_stall_weight + prm.out_stall_weight);
      for (const net::LinkClassRange& cls : topo.link_classes()) {
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
      break;
    }
    default:
      for (std::size_t r = lo; r < hi; ++r)
        p[0] += (bg.inject_rate[r] * dt + job.inject_bytes[r] + bg.eject_rate[r] * dt +
                 job.eject_bytes[r]) /
                flit;
      break;
  }
  return p;
}

LdmsFeatures LdmsSampler::finish(std::span<const LdmsPartial> partials,
                                 const CounterVec& job_total) const {
  DFV_CHECK(partials.size() == system_chunks());
  const auto total = [&](std::size_t k) {
    LdmsPartial acc{};
    for (std::size_t t = first_[k]; t < first_[k + 1]; ++t)
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += partials[t][i];
    return acc;
  };
  LdmsFeatures f;
  const LdmsPartial io = total(kIo);
  for (std::size_t i = 0; i < io.size(); ++i) f.io[i] = io[i];
  const LdmsPartial link_tot = total(kLinks);
  const double tot_rt_flit = link_tot[0], tot_rt_stl = link_tot[1];
  const double tot_pt_flit = total(kEndpoints)[0];
  f.sys[0] = std::max(0.0, tot_rt_flit - job_total[size_t(Counter::RT_FLIT_TOT)]);
  f.sys[1] = std::max(0.0, tot_rt_stl - job_total[size_t(Counter::RT_RB_STL)]);
  f.sys[2] = std::max(0.0, tot_pt_flit - job_total[size_t(Counter::PT_FLIT_TOT)]);
  f.sys[3] = f.sys[2] / model_->topology().config().flits_per_packet;
  return f;
}

LdmsFeatures LdmsSampler::sample(const net::RateLoads& bg, const net::ByteLoads& job,
                                 double dt,
                                 std::span<const net::RouterId> job_routers) const {
  // One pool region over every chunk: one worker wake-up for the four
  // reductions.
  Measurement m;
  m.start(*this, job_routers, bg, job, dt);
  exec::parallel_for(0, m.chunks(), 1, [&m](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) m.run(c);
  });
  return m.finish().ldms;
}

void Measurement::start(const LdmsSampler& sampler, std::span<const net::RouterId> job_routers,
                        const net::RateLoads& bg, const net::ByteLoads& job, double dt) {
  DFV_CHECK(dt > 0.0);
  sampler_ = &sampler;
  routers_ = job_routers;
  bg_ = &bg;
  job_ = &job;
  dt_ = dt;
  system_part_.resize(sampler.system_chunks());
  job_part_.resize(exec::num_chunks(job_routers.size(), CounterModel::kAggregateGrain));
}

void Measurement::run(std::size_t c) {
  DFV_CHECK(sampler_ != nullptr && c < chunks());
  const std::size_t sys = system_part_.size();
  if (c < sys)
    system_part_[c] = sampler_->system_chunk(c, *bg_, *job_, dt_);
  else
    job_part_[c - sys] = sampler_->model_->aggregate_chunk(c - sys, routers_, *bg_, *job_, dt_);
}

Measurement::Result Measurement::finish() const {
  DFV_CHECK(sampler_ != nullptr);
  Result r;
  r.counters = CounterModel::combine(job_part_);
  r.ldms = sampler_->finish(system_part_, r.counters);
  return r;
}

}  // namespace dfv::mon
