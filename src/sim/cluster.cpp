#include "sim/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"

namespace dfv::sim {

Cluster::Cluster(const net::DragonflyConfig& cfg, ClusterParams params,
                 std::vector<sched::UserArchetype> users, std::uint64_t seed)
    : topo_(cfg),
      params_(params),
      flow_(topo_, params.flow),
      counter_model_(topo_, params.counters),
      ldms_(counter_model_, mon::make_default_io_routers(topo_, params.io_routers_per_group)),
      slurm_(topo_, std::move(users), ldms_.io_routers(), hash_combine(seed, 0x51ce),
             sched::AllocPolicy::Clustered),
      rng_(hash_combine(seed, 0xc1057e2)) {
  DFV_CHECK(params_.max_bg_utilization > 0.0 && params_.max_bg_utilization <= 1.0);
  slurm_.set_max_background_utilization(params_.max_bg_utilization);
}

void Cluster::refresh_background_if_needed() {
  const double now = slurm_.now();
  const std::uint64_t epoch = slurm_.background_epoch();
  if (bg_valid_ && epoch == bg_epoch_seen_ &&
      now - bg_refresh_time_ < params_.bg_refresh_interval_s)
    return;

  // Evict cache entries for finished jobs, then route newly arrived jobs
  // once (at intensity 1) and cache their sparse link loads.
  const auto& running = slurm_.running_background();
  std::erase_if(bg_cache_, [&](const auto& entry) {
    for (const auto& job : running)
      if (job.job_id == entry.first) return false;
    return true;
  });
  for (const auto& job : running) {
    bool cached = false;
    for (const auto& entry : bg_cache_)
      if (entry.first == job.job_id) {
        cached = true;
        break;
      }
    if (cached || job.demands_per_s.empty()) continue;
    if (route_scratch_.link_rate.empty()) route_scratch_.resize(topo_);
    Rng route_rng = rng_.split(std::uint64_t(job.job_id) * 0x9e37u);
    route_touched_.clear();
    flow_.route_background(job.demands_per_s, params_.policy, 1.0, route_rng,
                           route_scratch_, &route_touched_);
    // The sparse loads come from the links the route raised from 0, in
    // ascending id, and each is zeroed behind: the same entries in the same
    // order as a scan of every link, and an all-zero scratch for the next
    // job. A link listed twice is zero by its second visit.
    std::sort(route_touched_.begin(), route_touched_.end());
    SparseLoads sparse;
    sparse.links.reserve(route_touched_.size());
    for (net::LinkId e : route_touched_) {
      double& rate = route_scratch_.link_rate[std::size_t(e)];
      if (rate > 0.0) sparse.links.emplace_back(e, rate);
      rate = 0.0;
    }
    for (std::size_t r = 0; r < route_scratch_.inject_rate.size(); ++r) {
      double& in = route_scratch_.inject_rate[r];
      double& out = route_scratch_.eject_rate[r];
      if (in > 0.0) sparse.inject.emplace_back(net::RouterId(r), in);
      if (out > 0.0) sparse.eject.emplace_back(net::RouterId(r), out);
      in = 0.0;
      out = 0.0;
    }
    bg_cache_.emplace_back(job.job_id, std::move(sparse));
  }

  // Combine: weighted sparse sum with each job's current OU intensity,
  // into the spare buffer (a pending measurement reads the current one).
  // Parallelized by partitioning the resource-id space: each chunk zeroes
  // its disjoint dense range, then scans every job's sorted sparse list
  // (binary search to its start), so per-element accumulation order equals
  // the serial job order and the result is thread-count independent.
  std::vector<std::pair<const SparseLoads*, double>> active;
  active.reserve(running.size());
  for (const auto& job : running) {
    const double mult = job.intensity();
    if (mult <= 0.0) continue;
    for (const auto& entry : bg_cache_) {
      if (entry.first != job.job_id) continue;
      active.emplace_back(&entry.second, mult);
      break;
    }
  }
  net::RateLoads& next = bg_loads_[std::size_t(1 - bg_cur_)];
  if (next.link_rate.empty()) next.resize(topo_);
  exec::parallel_for(0, next.link_rate.size(), 16384,
                     [&](std::size_t lo, std::size_t hi) {
                       std::fill(next.link_rate.begin() + std::ptrdiff_t(lo),
                                 next.link_rate.begin() + std::ptrdiff_t(hi), 0.0);
                       for (const auto& [sp, mult] : active) {
                         auto it = std::lower_bound(
                             sp->links.begin(), sp->links.end(), lo,
                             [](const auto& a, std::size_t v) { return std::size_t(a.first) < v; });
                         for (; it != sp->links.end() && std::size_t(it->first) < hi; ++it)
                           next.link_rate[std::size_t(it->first)] += it->second * mult;
                       }
                     });
  exec::parallel_for(0, next.inject_rate.size(), 512,
                     [&](std::size_t lo, std::size_t hi) {
                       const auto from = std::ptrdiff_t(lo), to = std::ptrdiff_t(hi);
                       std::fill(next.inject_rate.begin() + from,
                                 next.inject_rate.begin() + to, 0.0);
                       std::fill(next.eject_rate.begin() + from,
                                 next.eject_rate.begin() + to, 0.0);
                       for (const auto& [sp, mult] : active) {
                         auto it = std::lower_bound(
                             sp->inject.begin(), sp->inject.end(), lo,
                             [](const auto& a, std::size_t v) { return std::size_t(a.first) < v; });
                         for (; it != sp->inject.end() && std::size_t(it->first) < hi; ++it)
                           next.inject_rate[std::size_t(it->first)] += it->second * mult;
                         auto jt = std::lower_bound(
                             sp->eject.begin(), sp->eject.end(), lo,
                             [](const auto& a, std::size_t v) { return std::size_t(a.first) < v; });
                         for (; jt != sp->eject.end() && std::size_t(jt->first) < hi; ++jt)
                           next.eject_rate[std::size_t(jt->first)] += jt->second * mult;
                       }
                     });
  bg_cur_ = 1 - bg_cur_;
  bg_valid_ = true;
  bg_refresh_time_ = now;
  bg_epoch_seen_ = epoch;
}

const net::RateLoads& Cluster::background_loads() {
  refresh_background_if_needed();
  return bg();
}

CongestionView Cluster::congestion_of(std::span<const net::RouterId> routers) const {
  CongestionView v;
  if (routers.empty()) return v;
  const double ep_bw = topo_.config().endpoint_bw;
  DFV_CHECK(ep_bw > 0.0);
  const net::RateLoads& bg_loads = bg();
  for (net::RouterId r : routers) DFV_CHECK(std::size_t(r) < bg_loads.inject_rate.size());
  std::vector<double> stalls;
  stalls.reserve(routers.size());
  double sum = 0.0;
  for (net::RouterId r : routers) {
    const double u_inj = bg_loads.inject_rate[std::size_t(r)] / ep_bw;
    const double u_ej = bg_loads.eject_rate[std::size_t(r)] / ep_bw;
    const double s = 0.5 * (net::stall_fraction(u_inj) + net::stall_fraction(u_ej));
    sum += s;
    stalls.push_back(s);
  }
  // Mean captures diffuse endpoint pressure; the upper tail (p95) captures
  // the few shared routers that stall a tightly synchronized code without
  // letting a single saturated router dominate large placements.
  const std::size_t q = stalls.size() - 1 - (stalls.size() - 1) / 20;
  std::nth_element(stalls.begin(), stalls.begin() + q, stalls.end());
  v.pt_stall = sum / double(routers.size()) + 0.35 * stalls[q];
  v.transit = flow_.congestion_factor(routers, bg_loads);
  return v;
}

// dfv-lint: allow(contract): thin forwarder; congestion_of validates the placement
CongestionView Cluster::congestion(std::span<const net::RouterId> routers) {
  refresh_background_if_needed();
  return congestion_of(routers);
}

RunRecord Cluster::run_app(const apps::AppModel& app, int user_id, double max_wait_s) {
  const auto& info = app.info();
  const double submit_time = slurm_.now();

  // Queue until the allocator can place the job (the paper's jobs waited
  // in Cori's production queue).
  std::optional<int> job_id;
  for (double waited = 0.0; waited <= max_wait_s;) {
    job_id = slurm_.start_instrumented_job(info.name, info.nodes, user_id);
    if (job_id) break;
    const double wait = 600.0;
    slurm_.advance_to(slurm_.now() + wait);
    slurm_.step_intensities(wait);
    waited += wait;
  }
  DFV_CHECK_MSG(job_id.has_value(),
                "could not place " << info.name << " on " << info.nodes << " nodes after "
                                   << max_wait_s << "s of queue wait");

  const sched::Placement placement = slurm_.placement_of(*job_id);
  RunRecord rec;
  rec.job_id = *job_id;
  rec.submit_time_s = submit_time;
  rec.start_time_s = slurm_.now();
  rec.num_routers = placement.num_routers();
  rec.num_groups = placement.num_groups;

  Rng app_rng = rng_.split(std::uint64_t(*job_id));
  const apps::AppCoefficients& coeff = app.coefficients();
  // Step t's measurement, finished once step t + 1 is routed. On the way
  // out of an exception the destructor waits for it.
  exec::DeferredJob measuring;

  for (int t = 0; t < app.num_steps(); ++t) {
    refresh_background_if_needed();
    const apps::StepSpec spec = app.step(t, placement, topo_, app_rng);
    const CongestionView cong = congestion_of(placement.routers);

    // The previous step's measurement reads the other buffer; the one
    // before it, the last to read this one, was finished a step ago.
    net::ByteLoads& step_loads = step_loads_[std::size_t(t % 2)];
    if (step_loads.link_bytes.empty()) step_loads.resize(topo_);
    step_loads.clear();
    double step_time = spec.compute_s;
    mon::MpiProfile step_profile;
    step_profile.add_compute(spec.compute_s);

    for (const apps::PhaseSpec& phase : spec.phases) {
      double phase_time = 0.0;
      const double noise = std::exp(params_.mpi_noise_sigma * app_rng.normal());
      switch (phase.kind) {
        case apps::PhaseSpec::Kind::PointToPoint: {
          const auto xfer =
              flow_.transfer(phase.demands, params_.policy, bg(), app_rng, &step_loads);
          phase_time = phase.base_seconds *
                           (1.0 + coeff.pt_weight * cong.pt_stall +
                            coeff.rt_weight * (cong.transit - 1.0)) *
                           noise +
                       xfer.makespan;
          break;
        }
        case apps::PhaseSpec::Kind::Allreduce:
        case apps::PhaseSpec::Kind::Barrier: {
          phase_time = phase.base_seconds *
                       (1.0 + coeff.coll_weight * (cong.transit - 1.0) +
                        0.5 * coeff.pt_weight * cong.pt_stall) *
                       noise;
          // Collective payloads touch every router's processor tiles.
          const double coll_bytes = phase.rounds * phase.bytes;
          if (coll_bytes > 0.0)
            for (net::RouterId r : placement.routers) {
              step_loads.inject_bytes[std::size_t(r)] += coll_bytes;
              step_loads.eject_bytes[std::size_t(r)] += coll_bytes;
            }
          break;
        }
      }
      step_time += phase_time;
      for (const apps::RoutineShare& rs : phase.attribution)
        step_profile.add(rs.routine, rs.share * phase_time);
    }

    // Advance the world by the step's duration, then measure: counter
    // deltas integrate background traffic over exactly this interval.
    slurm_.advance_to(slurm_.now() + step_time);
    slurm_.step_intensities(step_time);

    DFV_LOG_DEBUG("step " << t << ": " << step_time << "s (compute " << spec.compute_s
                          << ", pt_stall " << cong.pt_stall << ", transit "
                          << cong.transit << ")");
    rec.step_times.push_back(step_time);
    if (synchronous_measurement_) {
      rec.step_counters.push_back(
          counter_model_.aggregate(placement.routers, bg(), step_loads, step_time));
      rec.step_ldms.push_back(ldms_.sample(bg(), step_loads, step_time, placement.routers));
    } else {
      finish_measurement(measuring, rec);
      measurement_.start(ldms_, placement.routers, bg(), step_loads, step_time);
      measuring.post(measurement_.chunks(), [this](std::size_t c) { measurement_.run(c); });
    }
    rec.profile.add(step_profile);
  }
  finish_measurement(measuring, rec);

  slurm_.end_instrumented_job(*job_id);
  rec.end_time_s = slurm_.now();
  return rec;
}

void Cluster::finish_measurement(exec::DeferredJob& job, RunRecord& rec) {
  if (!job.pending()) return;
  DFV_CHECK(rec.step_counters.size() < rec.step_times.size());
  job.wait();
  const mon::Measurement::Result m = measurement_.finish();
  rec.step_counters.push_back(m.counters);
  rec.step_ldms.push_back(m.ldms);
}

}  // namespace dfv::sim
