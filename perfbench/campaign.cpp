// `campaign` workload: generate the paper's six Cori datasets for a fixed
// number of simulated days and publish them through
// sim::run_campaign_cached into a fresh cache directory, then reopen the
// published entry and check it holds the same datasets.
//
// The traced pass cannot see inside sim::run_campaign, so it drives the
// same public layer objects (topology, flow model, counter model, LDMS
// sampler, scheduler, app models) through a step-for-step copy of
// sim::Cluster and the campaign loop, with a span around each layer call.
// Its datasets must hash to the same digest as the untraced pass, so a
// simulator change that alters the output makes the traced run report
// itself incorrect. A change that keeps the output but makes the library
// faster (or slower) is caught by timing: the traced run also times the
// copy with tracing off, paired campaign by campaign with the library, and
// reports itself incorrect when the two differ by more than
// kCopyTolerance. A smaller drift of the copy goes unseen.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>

#include "apps/registry.hpp"
#include "common/check.hpp"
#include "exec/exec.hpp"
#include "harness.hpp"
#include "mon/counter_model.hpp"
#include "mon/ldms.hpp"
#include "net/flow_model.hpp"
#include "sched/slurm.hpp"
#include "sim/campaign_store.hpp"
#include "sim/cluster.hpp"

namespace perfbench {

namespace {

using namespace dfv;
namespace fs = std::filesystem;
using trace::Span;

/// Simulated days per campaign: the unit of work of this workload, short
/// so that each campaign repeats several times in a run.
constexpr int kCampaignDays = 1;

/// Distinct campaigns per run, drawn from the workload seed. A run cycles
/// through them and times each by its fastest repetition: on a shared host
/// a campaign slowed by CPU taken from outside (the pool waits for its
/// slowest thread at every parallel region, so a little lost CPU costs a
/// lot of time) is retried rather than counted.
constexpr std::size_t kCampaigns = 8;

/// One job per dataset per day (the low end of the paper's "one or two"):
/// every campaign then runs the same app mix, so runs per second compares
/// across seeds instead of following how many MILC-512 runs a seed drew.
sim::CampaignConfig campaign_config(std::uint64_t seed) {
  return sim::CampaignConfig::cori().days(kCampaignDays).jobs_per_day(1.0).seed(seed).build();
}

std::uint64_t campaign_seed(std::uint64_t seed, std::size_t i) {
  return hash_combine(seed, 0xca3a1u + i);
}

// --- copy of sim::run_campaign's population (campaign.cpp) ---------------

sched::UserArchetype campaign_account_archetype(int max_nodes) {
  sched::UserArchetype u;
  u.user_id = sched::kCampaignUserId;
  u.description = "controlled experiments (this study)";
  u.jobs_per_day = 5.0;
  u.min_nodes = std::min(128, max_nodes);
  u.max_nodes = std::min(512, max_nodes);
  u.duration_mean_s = 700.0;
  u.duration_sigma = 0.25;
  u.traffic.net_bytes_per_node_per_s = 0.5e9;
  u.traffic.io_bytes_per_node_per_s = 0.01e9;
  u.traffic.pattern = sched::BgPattern::NearestNeighbor;
  return u;
}

std::vector<sched::UserArchetype> build_population(const sim::CampaignConfig& cfg) {
  auto users = sched::default_user_population(cfg.quiet_users);
  for (auto& u : users) {
    u.min_nodes = std::min(u.min_nodes, cfg.max_bg_job_nodes);
    u.max_nodes = std::min(u.max_nodes, cfg.max_bg_job_nodes);
  }
  users.push_back(campaign_account_archetype(cfg.max_bg_job_nodes));
  return users;
}

// --- copy of sim::Cluster (cluster.cpp) with a span per layer call --------

class TracedCluster {
 public:
  TracedCluster(const net::DragonflyConfig& cfg, sim::ClusterParams params,
                std::vector<sched::UserArchetype> users, std::uint64_t seed)
      : topo_(cfg),
        params_(params),
        flow_(topo_, params.flow),
        counter_model_(topo_, params.counters),
        ldms_(counter_model_,
              mon::make_default_io_routers(topo_, params.io_routers_per_group)),
        slurm_(topo_, std::move(users), ldms_.io_routers(), hash_combine(seed, 0x51ce),
               sched::AllocPolicy::Clustered),
        rng_(hash_combine(seed, 0xc1057e2)) {
    slurm_.set_max_background_utilization(params_.max_bg_utilization);
    bg_loads_.resize(topo_);
    step_loads_.resize(topo_);
  }

  TracedCluster(const TracedCluster&) = delete;
  TracedCluster& operator=(const TracedCluster&) = delete;

  sched::SlurmSim& slurm() { return slurm_; }
  void invalidate_background() { bg_valid_ = false; }

  void advance(double t, double dt) {
    Span span("sched.advance");
    slurm_.advance_to(t);
    slurm_.step_intensities(dt);
  }

  sim::RunRecord run_app(const apps::AppModel& app) {
    Span span("sim.run_app");
    const auto& info = app.info();
    const double submit_time = slurm_.now();
    const double max_wait_s = 6 * 3600.0;

    std::optional<int> job_id;
    for (double waited = 0.0; waited <= max_wait_s;) {
      job_id = slurm_.start_instrumented_job(info.name, info.nodes, sched::kCampaignUserId);
      if (job_id) break;
      const double wait = 600.0;
      advance(slurm_.now() + wait, wait);
      waited += wait;
    }
    DFV_CHECK_MSG(job_id.has_value(), "could not place " << info.name);

    const sched::Placement placement = slurm_.placement_of(*job_id);
    sim::RunRecord rec;
    rec.job_id = *job_id;
    rec.submit_time_s = submit_time;
    rec.start_time_s = slurm_.now();
    rec.num_routers = placement.num_routers();
    rec.num_groups = placement.num_groups;

    Rng app_rng = rng_.split(std::uint64_t(*job_id));
    const apps::AppCoefficients& coeff = app.coefficients();

    for (int t = 0; t < app.num_steps(); ++t) {
      refresh_background_if_needed();
      apps::StepSpec spec;
      {
        Span s("apps.step");
        spec = app.step(t, placement, topo_, app_rng);
      }
      const sim::CongestionView cong = congestion_of(placement.routers);

      step_loads_.clear();
      double step_time = spec.compute_s;
      mon::MpiProfile step_profile;
      step_profile.add_compute(spec.compute_s);

      for (const apps::PhaseSpec& phase : spec.phases) {
        double phase_time = 0.0;
        const double noise = std::exp(params_.mpi_noise_sigma * app_rng.normal());
        switch (phase.kind) {
          case apps::PhaseSpec::Kind::PointToPoint: {
            net::TransferResult xfer;
            {
              Span s("net.transfer");
              xfer = flow_.transfer(phase.demands, params_.policy, bg_loads_, app_rng,
                                    &step_loads_);
            }
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
            const double coll_bytes = phase.rounds * phase.bytes;
            if (coll_bytes > 0.0)
              for (net::RouterId r : placement.routers) {
                step_loads_.inject_bytes[std::size_t(r)] += coll_bytes;
                step_loads_.eject_bytes[std::size_t(r)] += coll_bytes;
              }
            break;
          }
        }
        step_time += phase_time;
        for (const apps::RoutineShare& rs : phase.attribution)
          step_profile.add(rs.routine, rs.share * phase_time);
      }

      advance(slurm_.now() + step_time, step_time);

      rec.step_times.push_back(step_time);
      {
        Span s("mon.aggregate");
        rec.step_counters.push_back(
            counter_model_.aggregate(placement.routers, bg_loads_, step_loads_, step_time));
      }
      {
        Span s("mon.ldms_sample");
        rec.step_ldms.push_back(
            ldms_.sample(bg_loads_, step_loads_, step_time, placement.routers));
      }
      rec.profile.add(step_profile);
    }

    slurm_.end_instrumented_job(*job_id);
    rec.end_time_s = slurm_.now();
    return rec;
  }

 private:
  struct SparseLoads {
    std::vector<std::pair<net::LinkId, double>> links;
    std::vector<std::pair<net::RouterId, double>> inject;
    std::vector<std::pair<net::RouterId, double>> eject;
  };

  void refresh_background_if_needed() {
    const double now = slurm_.now();
    const std::uint64_t epoch = slurm_.background_epoch();
    if (bg_valid_ && epoch == bg_epoch_seen_ &&
        now - bg_refresh_time_ < params_.bg_refresh_interval_s)
      return;
    Span span("sim.bg_refresh");

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
      route_scratch_.clear();
      Rng route_rng = rng_.split(std::uint64_t(job.job_id) * 0x9e37u);
      {
        Span s("net.route_background");
        flow_.route_background(job.demands_per_s, params_.policy, 1.0, route_rng,
                               route_scratch_);
      }
      SparseLoads sparse;
      for (std::size_t e = 0; e < route_scratch_.link_rate.size(); ++e)
        if (route_scratch_.link_rate[e] > 0.0)
          sparse.links.emplace_back(net::LinkId(e), route_scratch_.link_rate[e]);
      for (std::size_t r = 0; r < route_scratch_.inject_rate.size(); ++r) {
        if (route_scratch_.inject_rate[r] > 0.0)
          sparse.inject.emplace_back(net::RouterId(r), route_scratch_.inject_rate[r]);
        if (route_scratch_.eject_rate[r] > 0.0)
          sparse.eject.emplace_back(net::RouterId(r), route_scratch_.eject_rate[r]);
      }
      bg_cache_.emplace_back(job.job_id, std::move(sparse));
    }

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
    bg_loads_.clear();
    const auto sparse_add = [&active](std::size_t lo, std::size_t hi, auto member,
                                      std::vector<double>& dense) {
      for (const auto& [sp, mult] : active) {
        const auto& list = (*sp).*member;
        auto it = std::lower_bound(list.begin(), list.end(), lo, [](const auto& a, std::size_t v) {
          return std::size_t(a.first) < v;
        });
        for (; it != list.end() && std::size_t(it->first) < hi; ++it)
          dense[std::size_t(it->first)] += it->second * mult;
      }
    };
    exec::parallel_for(0, bg_loads_.link_rate.size(), 16384,
                       [&](std::size_t lo, std::size_t hi) {
                         sparse_add(lo, hi, &SparseLoads::links, bg_loads_.link_rate);
                       });
    exec::parallel_for(0, bg_loads_.inject_rate.size(), 512,
                       [&](std::size_t lo, std::size_t hi) {
                         sparse_add(lo, hi, &SparseLoads::inject, bg_loads_.inject_rate);
                         sparse_add(lo, hi, &SparseLoads::eject, bg_loads_.eject_rate);
                       });
    bg_valid_ = true;
    bg_refresh_time_ = now;
    bg_epoch_seen_ = epoch;
  }

  sim::CongestionView congestion_of(std::span<const net::RouterId> routers) const {
    sim::CongestionView v;
    if (routers.empty()) return v;
    const double ep_bw = topo_.config().endpoint_bw;
    std::vector<double> stalls;
    stalls.reserve(routers.size());
    double sum = 0.0;
    for (net::RouterId r : routers) {
      const double u_inj = bg_loads_.inject_rate[std::size_t(r)] / ep_bw;
      const double u_ej = bg_loads_.eject_rate[std::size_t(r)] / ep_bw;
      const double s = 0.5 * (net::stall_fraction(u_inj) + net::stall_fraction(u_ej));
      sum += s;
      stalls.push_back(s);
    }
    const std::size_t q = stalls.size() - 1 - (stalls.size() - 1) / 20;
    std::nth_element(stalls.begin(), stalls.begin() + std::ptrdiff_t(q), stalls.end());
    v.pt_stall = sum / double(routers.size()) + 0.35 * stalls[q];
    Span s("net.congestion_factor");
    v.transit = flow_.congestion_factor(routers, bg_loads_);
    return v;
  }

  net::Topology topo_;
  sim::ClusterParams params_;
  net::FlowModel flow_;
  mon::CounterModel counter_model_;
  mon::LdmsSampler ldms_;
  sched::SlurmSim slurm_;
  Rng rng_;

  net::RateLoads bg_loads_;
  bool bg_valid_ = false;
  double bg_refresh_time_ = -1.0;
  std::uint64_t bg_epoch_seen_ = ~0ull;
  std::vector<std::pair<int, SparseLoads>> bg_cache_;
  net::RateLoads route_scratch_;
  net::ByteLoads step_loads_;
};

/// Copy of sim::run_campaign (faults disabled) over TracedCluster.
sim::CampaignResult traced_campaign(const sim::CampaignConfig& cfg) {
  Span span("sim.campaign");
  DFV_CHECK_MSG(!cfg.faults.enabled(), "the traced campaign copy has no fault injection");
  sim::CampaignResult result;
  TracedCluster cluster(cfg.machine, cfg.cluster, build_population(cfg), cfg.seed);
  Rng rng(hash_combine(cfg.seed, 0xca3b));

  std::vector<std::unique_ptr<apps::AppModel>> models;
  result.datasets.resize(cfg.datasets.size());
  for (std::size_t i = 0; i < cfg.datasets.size(); ++i) {
    result.datasets[i].spec = cfg.datasets[i];
    models.push_back(apps::make_app(cfg.datasets[i].app, cfg.datasets[i].nodes));
  }
  {
    Span s("sched.advance");
    cluster.slurm().advance_to(cfg.warmup_days * 86400.0);
  }

  struct Submission {
    double time;
    std::size_t dataset;
  };
  std::vector<Submission> schedule;
  for (int day = 0; day < cfg.days; ++day) {
    const double day_start = (cfg.warmup_days + double(day)) * 86400.0;
    for (std::size_t i = 0; i < cfg.datasets.size(); ++i) {
      int count = 1;
      if (cfg.jobs_per_day > 1.0 && rng.bernoulli(cfg.jobs_per_day - 1.0)) count = 2;
      for (int j = 0; j < count; ++j) schedule.push_back({day_start + rng.uniform(0.0, 86400.0), i});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Submission& a, const Submission& b) { return a.time < b.time; });

  for (const Submission& sub : schedule) {
    if (sub.time > cluster.slurm().now()) {
      cluster.advance(sub.time, sub.time - cluster.slurm().now());
      cluster.invalidate_background();
    }
    result.datasets[sub.dataset].runs.push_back(cluster.run_app(*models[sub.dataset]));
  }

  Span fill("sim.neighborhood_fill");
  result.sacct = cluster.slurm().sacct();
  std::vector<sim::RunRecord*> all_runs;
  for (auto& ds : result.datasets)
    for (auto& run : ds.runs) all_runs.push_back(&run);
  exec::parallel_for(0, all_runs.size(), 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      sim::RunRecord& run = *all_runs[i];
      std::vector<int> users;
      for (const auto& rec : result.sacct) {
        if (rec.job_id == run.job_id || rec.num_nodes < cfg.neighborhood_min_nodes) continue;
        const double end = rec.end_s < 0.0 ? std::numeric_limits<double>::infinity() : rec.end_s;
        if (rec.start_s < run.end_time_s && end > run.start_time_s) users.push_back(rec.user_id);
      }
      std::sort(users.begin(), users.end());
      users.erase(std::unique(users.begin(), users.end()), users.end());
      run.neighborhood_users = std::move(users);
    }
  });
  return result;
}

std::size_t total_runs(const sim::CampaignResult& r) {
  std::size_t n = 0;
  for (const auto& ds : r.datasets) n += ds.runs.size();
  return n;
}

/// Which code generates and publishes a campaign: the library
/// (sim::run_campaign_cached) or this file's copy, which records spans
/// while tracing is on.
enum class Path { Library, Copy };

struct Made {
  std::size_t runs = 0;
  double busy_s = 0.0;  ///< generation + publish wall time
  double cpu_s = 0.0;   ///< process CPU time over the same interval
  std::uint64_t digest = 0;
};

/// Set-up of campaign `i`: what every campaign does before its first run:
/// build the Cori machine model (topology, routing tables, flow and counter
/// models, LDMS sampler, scheduler) and let the background fill the machine
/// through the warm-up days.
double time_setup(const Options& opt, std::size_t i) {
  const sim::CampaignConfig cfg = campaign_config(campaign_seed(opt.seed, i % kCampaigns));
  const Stopwatch sw;
  sim::Cluster cluster(cfg.machine, cfg.cluster, build_population(cfg), cfg.seed);
  cluster.slurm().advance_to(cfg.warmup_days * 86400.0);
  return sw.seconds();
}

/// Generate, publish and reopen campaign `i`; nothing if it failed.
std::optional<Made> one_campaign(const Options& opt, std::size_t i, Path path, Result& res) {
  const sim::CampaignConfig cfg = campaign_config(campaign_seed(opt.seed, i % kCampaigns));
  const std::string dir = opt.work_dir + "/campaign-" + std::to_string(i);
  fs::remove_all(dir);
  res.attempted += 1;
  std::optional<Made> out;
  try {
    const double cpu0 = process_cpu_s();
    const Stopwatch busy;
    sim::CampaignResult made;
    if (path == Path::Copy) {
      made = traced_campaign(cfg);
      fs::create_directories(dir);
      Span s("store.publish");
      DFV_CHECK_MSG(sim::save_campaign_store(made, store_entry(dir, cfg)),
                    "campaign store publish failed");
    } else {
      made = sim::run_campaign_cached(cfg, dir, sim::CacheFormat::Store);
    }
    Made m{total_runs(made), busy.seconds(), 0.0, campaign_digest(made)};
    m.cpu_s = process_cpu_s() - cpu0;

    sim::CampaignResult reopened = sim::CampaignStorePin::open(store_entry(dir, cfg)).load_all();
    for (std::size_t d = 0; d < reopened.datasets.size(); ++d)
      reopened.datasets[d].spec = cfg.datasets[d];
    if (campaign_digest(reopened) != m.digest)
      res.fail("published campaign " + std::to_string(i) + " reopens to different datasets");
    out = m;
  } catch (const std::exception& e) {
    res.fail(std::string("campaign ") + std::to_string(i) + ": " + e.what());
  }
  fs::remove_all(dir);
  return out;
}

struct PassStats {
  std::size_t made = 0;  ///< campaigns generated through `path`
  std::size_t runs = 0;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::size_t> runs_of = std::vector<std::size_t>(kCampaigns, 0);
  std::vector<double> best_s = std::vector<double>(kCampaigns, kNever);
  std::vector<double> copy_best_s = std::vector<double>(kCampaigns, kNever);  ///< paired
  std::vector<std::uint64_t> digests = std::vector<std::uint64_t>(kCampaigns, 0);
  std::vector<double> setup_s;  ///< one set-up timed before each campaign

  static constexpr double kNever = std::numeric_limits<double>::infinity();

  /// Simulated runs per second of the campaigns, each at its fastest.
  [[nodiscard]] static double rate(const std::vector<std::size_t>& runs,
                                   const std::vector<double>& best) {
    double n = 0.0, s = 0.0;
    for (std::size_t c = 0; c < kCampaigns; ++c) {
      n += double(runs[c]);
      s += best[c];
    }
    return s > 0.0 && std::isfinite(s) ? n / s : 0.0;
  }
  [[nodiscard]] double runs_per_s() const { return rate(runs_of, best_s); }
  [[nodiscard]] double copy_runs_per_s() const { return rate(runs_of, copy_best_s); }
};

/// Generate, publish and verify campaigns i = 0, 1, ... through `path`,
/// cycling over the kCampaigns campaigns, until `seconds` have passed and
/// each ran at least once. A campaign must repeat bit for bit. Set-ups
/// are timed between campaigns, so they sample the whole run. `paired`
/// also runs each campaign through the copy right after, to time one
/// against the other.
PassStats campaign_pass(const Options& opt, double seconds, Path path, bool paired,
                        Result& res) {
  PassStats st;
  const Stopwatch wall;
  for (std::size_t i = 0; i < kCampaigns || wall.seconds() < seconds; ++i) {
    const std::size_t c = i % kCampaigns;
    st.setup_s.push_back(time_setup(opt, i));
    const std::optional<Made> m = one_campaign(opt, i, path, res);
    if (!m) continue;
    st.made += 1;
    st.busy_s += m->busy_s;
    st.cpu_s += m->cpu_s;
    st.runs += m->runs;
    if (i < kCampaigns) {
      st.runs_of[c] = m->runs;
      st.digests[c] = m->digest;
    } else if (m->digest != st.digests[c]) {
      res.fail("campaign " + std::to_string(c) + " is not deterministic");
    }
    st.best_s[c] = std::min(st.best_s[c], m->busy_s);
    if (!paired) continue;
    if (const std::optional<Made> cp = one_campaign(opt, i, Path::Copy, res)) {
      st.copy_best_s[c] = std::min(st.copy_best_s[c], cp->busy_s);
      if (cp->digest != m->digest)
        res.fail("copied campaign " + std::to_string(c) + " digest differs from the library's");
    }
  }
  return st;
}

}  // namespace

Result run_campaign_workload(const Options& opt) {
  Result res;
  res.workload = "campaign";
  fs::create_directories(opt.work_dir);

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const PassStats st = campaign_pass(opt, untraced_s, Path::Library, opt.trace, res);
  const double runs_per_s = st.runs_per_s();
  Digest digest;
  for (std::uint64_t d : st.digests) digest.u64(d);
  res.digest = digest.value();

  res.metric("setup_s", median(st.setup_s), "s");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
  res.metric("throughput_per_s", runs_per_s, "1/s");  // campaign_runs_per_s
  res.metric("campaigns", double(st.made), "count");
  res.metric("simulated_runs", double(st.runs), "count");

  if (opt.trace) {
    const double copy_speed = st.copy_runs_per_s() / runs_per_s;
    std::cout << "copy of sim::Cluster, untraced: " << copy_speed << " x the library's runs/s\n";
    if (!(std::abs(copy_speed - 1.0) <= kCopyTolerance))
      res.fail("the traced copy of sim::Cluster runs at " + std::to_string(copy_speed) +
               " x the library's speed; bring it up to date with src/sim");
    trace::enable(true);
    const PassStats tr = campaign_pass(opt, opt.seconds / 2, Path::Copy, false, res);
    const auto stats = finish_trace(opt);
    if (tr.digests != st.digests) res.fail("traced campaign digests differ from untraced");
    add_layer_times(res, stats,
                    {{"net.transfer", "us"}, {"net.route_background", "us"},
                     {"net.congestion_factor", "us"}, {"mon.aggregate", "us"},
                     {"mon.ldms_sample", "us"}, {"apps.step", "us"}, {"sim.bg_refresh", "us"},
                     {"sim.run_app", "ms"}, {"sched.advance", "ms"}, {"store.publish", "ms"}});
    res.layer("exec.cpu_per_wall", st.busy_s > 0.0 ? st.cpu_s / st.busy_s : 0.0, "ratio");
    const double traced_rate = tr.runs_per_s();
    res.layer("trace.overhead_frac", runs_per_s > 0.0 ? 1.0 - traced_rate / runs_per_s : 0.0,
              "ratio");
  }
  return res;
}

}  // namespace perfbench
