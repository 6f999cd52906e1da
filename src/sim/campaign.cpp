#include "sim/campaign.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"
#include "sim/cache_gc.hpp"
#include "sim/campaign_store.hpp"

namespace dfv::sim {

namespace fs = std::filesystem;

CampaignConfig CampaignConfig::small(std::uint64_t seed) {
  CampaignConfig c;
  c.seed = seed;
  c.machine = net::DragonflyConfig::small(8);
  c.machine.nodes_per_router = 4;  // 8 groups x 12 routers x 4 nodes = 384 nodes
  c.days = 10;
  c.jobs_per_day = 1.5;
  c.warmup_days = 0.5;
  c.quiet_users = 6;
  c.neighborhood_min_nodes = 32;
  c.max_bg_job_nodes = 96;
  // 384-node machine running 128-node instrumented jobs: keep headroom.
  c.cluster.max_bg_utilization = 0.55;
  c.datasets = {{"AMG", 128}, {"MILC", 128}, {"miniVite", 128}, {"UMT", 128}};
  c.validate();  // the factory guarantees a runnable config
  return c;
}

CampaignBuilder CampaignConfig::cori() { return CampaignBuilder(CampaignConfig{}); }

CampaignBuilder CampaignConfig::small_machine(std::uint64_t seed) {
  return CampaignBuilder(CampaignConfig::small(seed));
}

void CampaignConfig::validate() const {
  DFV_CHECK_MSG(days >= 1, "campaign days must be >= 1 (got " << days << ")");
  DFV_CHECK_MSG(jobs_per_day >= 0.0,
                "jobs_per_day must be >= 0 (got " << jobs_per_day << ")");
  DFV_CHECK_MSG(warmup_days >= 0.0, "warmup_days must be >= 0 (got " << warmup_days << ")");
  DFV_CHECK_MSG(quiet_users >= 0, "quiet_users must be >= 0 (got " << quiet_users << ")");
  DFV_CHECK_MSG(neighborhood_min_nodes >= 0, "neighborhood_min_nodes must be >= 0");
  DFV_CHECK_MSG(max_bg_job_nodes >= 1, "max_bg_job_nodes must be >= 1");
  DFV_CHECK_MSG(threads >= 0, "threads must be >= 0 (0 = global default)");
  DFV_CHECK_MSG(machine.groups >= 2 && machine.row_size >= 1 && machine.col_size >= 1 &&
                    machine.nodes_per_router >= 1,
                "machine shape is degenerate (groups " << machine.groups << ", row "
                                                       << machine.row_size << ", col "
                                                       << machine.col_size << ")");
  DFV_CHECK_MSG(!datasets.empty(), "campaign needs at least one dataset");
  for (const auto& d : datasets) {
    DFV_CHECK_MSG(!d.app.empty(), "dataset with empty app name");
    DFV_CHECK_MSG(d.nodes >= 1, "dataset " << d.app << " has nodes " << d.nodes);
  }
  DFV_CHECK_MSG(cluster.bg_refresh_interval_s > 0.0, "bg_refresh_interval_s must be > 0");
  DFV_CHECK_MSG(cluster.max_bg_utilization > 0.0 && cluster.max_bg_utilization <= 1.0,
                "max_bg_utilization must be in (0, 1]");
  DFV_CHECK_MSG(cluster.mpi_noise_sigma >= 0.0, "mpi_noise_sigma must be >= 0");
  DFV_CHECK_MSG(cluster.io_routers_per_group >= 1, "io_routers_per_group must be >= 1");
  faults.validate();
}

CampaignBuilder& CampaignBuilder::dataset(std::string app, int nodes) {
  DFV_CHECK_MSG(!app.empty() && nodes >= 1, "dataset needs a name and >= 1 nodes");
  if (!datasets_replaced_) {
    cfg_.datasets.clear();
    datasets_replaced_ = true;
  }
  cfg_.datasets.push_back({std::move(app), nodes});
  return *this;
}

CampaignConfig CampaignBuilder::build() const {
  cfg_.validate();
  return cfg_;
}

namespace {

/// The campaign account's *other* jobs: the paper's User 8 submitted many
/// jobs (several apps x node counts per day); since instrumented runs are
/// simulated sequentially, concurrent submissions from the same account
/// are represented as background jobs with MILC-like traffic.
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

std::vector<sched::UserArchetype> build_population(const CampaignConfig& cfg) {
  auto users = sched::default_user_population(cfg.quiet_users);
  for (auto& u : users) {
    u.min_nodes = std::min(u.min_nodes, cfg.max_bg_job_nodes);
    u.max_nodes = std::min(u.max_nodes, cfg.max_bg_job_nodes);
  }
  users.push_back(campaign_account_archetype(cfg.max_bg_job_nodes));
  return users;
}

}  // namespace

const Dataset& CampaignResult::dataset(const std::string& app, int nodes) const {
  for (const auto& d : datasets)
    if (d.spec.app == app && d.spec.nodes == nodes) return d;
  DFV_CHECK_MSG(false, "no dataset " << app << "-" << nodes << " in campaign result");
  static const Dataset kEmpty;
  return kEmpty;  // unreachable
}

CampaignResult run_campaign(const CampaignConfig& cfg) {
  cfg.validate();
  if (cfg.threads > 0) exec::ThreadPool::instance().resize(cfg.threads);
  CampaignResult result;
  Cluster cluster(cfg.machine, cfg.cluster, build_population(cfg), cfg.seed);
  Rng rng(hash_combine(cfg.seed, 0xca3b));

  // Instantiate the app models once per dataset.
  std::vector<std::unique_ptr<apps::AppModel>> models;
  result.datasets.resize(cfg.datasets.size());
  for (std::size_t i = 0; i < cfg.datasets.size(); ++i) {
    result.datasets[i].spec = cfg.datasets[i];
    models.push_back(apps::make_app(cfg.datasets[i].app, cfg.datasets[i].nodes));
  }

  // Let the background fill the machine before the first run.
  cluster.slurm().advance_to(cfg.warmup_days * 86400.0);

  // Build the submission schedule: 1-2 jobs per dataset per day at random
  // times, exactly the paper's protocol.
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
      for (int j = 0; j < count; ++j)
        schedule.push_back({day_start + rng.uniform(0.0, 86400.0), i});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Submission& a, const Submission& b) { return a.time < b.time; });

  for (std::size_t s = 0; s < schedule.size(); ++s) {
    const Submission& sub = schedule[s];
    if (sub.time > cluster.slurm().now()) {
      const double gap = sub.time - cluster.slurm().now();
      cluster.slurm().advance_to(sub.time);
      cluster.slurm().step_intensities(gap);
      cluster.invalidate_background();
    }
    RunRecord rec = cluster.run_app(*models[sub.dataset]);
    result.datasets[sub.dataset].runs.push_back(std::move(rec));
    if (s % 100 == 0)
      DFV_LOG_INFO("campaign: " << s << "/" << schedule.size() << " runs, day "
                                << cluster.slurm().now() / 86400.0 << ", utilization "
                                << cluster.slurm().utilization());
  }

  // Fill each run's neighborhood from the accounting log: users with at
  // least one qualified job overlapping the run, excluding the run itself.
  // Runs are independent (each writes only its own record), so the scan is
  // parallel over the flattened run list.
  result.sacct = cluster.slurm().sacct();
  std::vector<RunRecord*> all_runs;
  for (auto& ds : result.datasets)
    for (auto& run : ds.runs) all_runs.push_back(&run);
  exec::parallel_for(0, all_runs.size(), 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      RunRecord& run = *all_runs[i];
      std::vector<int> users;
      for (const auto& rec : result.sacct) {
        if (rec.job_id == run.job_id || rec.num_nodes < cfg.neighborhood_min_nodes)
          continue;
        const double end =
            rec.end_s < 0.0 ? std::numeric_limits<double>::infinity() : rec.end_s;
        if (rec.start_s < run.end_time_s && end > run.start_time_s)
          users.push_back(rec.user_id);
      }
      std::sort(users.begin(), users.end());
      users.erase(std::unique(users.begin(), users.end()), users.end());
      run.neighborhood_users = std::move(users);
    }
  });

  // Degrade the finished telemetry per the fault spec. Each dataset gets
  // its own fault stream keyed off (campaign seed, fault seed, dataset
  // index); each run within it draws from a substream, so the result is
  // bit-identical for any thread count.
  if (cfg.faults.enabled()) {
    const std::uint64_t base = hash_combine(cfg.seed, cfg.faults.seed);
    for (std::size_t i = 0; i < result.datasets.size(); ++i)
      inject_faults(result.datasets[i], cfg.faults,
                    hash_combine(base, 0xfa0175ULL + i));
    DFV_LOG_INFO("campaign: injected faults (rate " << cfg.faults.rate << ", kinds "
                                                    << faults::fault_kinds_to_string(
                                                           cfg.faults.kinds)
                                                    << ")");
  }
  return result;
}

std::uint64_t config_fingerprint(const CampaignConfig& cfg) {
  DFV_CHECK(cfg.machine.groups >= 1);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  // Doubles are mixed by bit pattern: any change to any numeric knob must
  // produce a different cache entry, without quantization collisions.
  auto mix_d = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  mix(cfg.seed);
  // -- machine: every field, including bandwidths/latencies/clocks -------
  const net::DragonflyConfig& m = cfg.machine;
  mix(std::uint64_t(m.groups));
  mix(std::uint64_t(m.row_size));
  mix(std::uint64_t(m.col_size));
  mix(std::uint64_t(m.nodes_per_router));
  mix(std::uint64_t(m.global_ports_per_router));
  mix_d(m.green_bw);
  mix_d(m.black_bw);
  mix_d(m.blue_bw);
  mix_d(m.endpoint_bw);
  mix_d(m.hop_latency);
  mix_d(m.global_latency);
  mix_d(m.flit_bytes);
  mix_d(m.flits_per_packet);
  mix_d(m.clock_hz);
  // -- campaign protocol -------------------------------------------------
  mix(std::uint64_t(cfg.days));
  mix_d(cfg.jobs_per_day);
  mix_d(cfg.warmup_days);
  mix(std::uint64_t(cfg.quiet_users));
  mix(std::uint64_t(cfg.neighborhood_min_nodes));
  mix(std::uint64_t(cfg.max_bg_job_nodes));
  // NOTE: cfg.threads is deliberately excluded — output is bit-identical
  // for any thread count, so caches are shared across thread settings.
  // -- cluster: flow model, routing, counters, scheduler knobs -----------
  const ClusterParams& cl = cfg.cluster;
  mix_d(cl.flow.capacity_headroom);
  mix_d(cl.flow.min_residual_frac);
  mix_d(cl.flow.chunk_bytes);
  mix(std::uint64_t(cl.flow.max_chunks));
  mix(std::uint64_t(cl.flow.routing.minimal_candidates));
  mix(std::uint64_t(cl.flow.routing.valiant_candidates));
  mix_d(cl.flow.routing.congestion_weight);
  mix_d(cl.flow.routing.valiant_hop_penalty);
  mix_d(cl.counters.response_fraction);
  mix_d(cl.counters.in_stall_weight);
  mix_d(cl.counters.out_stall_weight);
  mix_d(cl.counters.cb_endpoint_weight);
  mix_d(cl.counters.cb_transit_weight);
  mix(std::uint64_t(int(cl.policy)));
  mix_d(cl.bg_refresh_interval_s);
  mix(std::uint64_t(cl.io_routers_per_group));
  mix_d(cl.max_bg_utilization);
  mix_d(cl.mpi_noise_sigma);
  for (const auto& d : cfg.datasets) {
    for (char c : d.app) mix(std::uint64_t(c));
    mix(std::uint64_t(d.nodes));
  }
  // -- fault injection: faulted and clean campaigns must never collide ---
  mix_d(cfg.faults.rate);
  mix(cfg.faults.seed);
  mix(std::uint64_t(cfg.faults.kinds));
  mix_d(cfg.faults.spike_magnitude);
  mix_d(cfg.faults.truncate_min_keep);
  // Version tag: bump when the generator's behavior changes so stale
  // entries are not reused (08: quality/profile_missing columns +
  // integrity footers). Retiring the CSV cache format did not bump it:
  // the entry name campaign_<fingerprint>.store must stay stable, because
  // perfbench builds that name itself and checks it with
  // campaign_store_exists.
  mix(0xDFC0DE08);
  return h;
}

std::string campaign_store_dir(const CampaignConfig& config, const std::string& cache_dir) {
  DFV_CHECK_MSG(!cache_dir.empty(), "cache_dir must not be empty");
  std::ostringstream dir_name;
  dir_name << cache_dir << "/campaign_" << std::hex << config_fingerprint(config) << ".store";
  return dir_name.str();
}

CampaignResult run_campaign_cached(const CampaignConfig& cfg, const std::string& cache_dir,
                                   CacheFormat /*format*/) {
  const std::string store_dir = campaign_store_dir(cfg, cache_dir);

  if (campaign_store_exists(store_dir)) {
    try {
      DFV_LOG_INFO("loading campaign store from " << store_dir);
      CampaignResult result = CampaignStorePin::open(store_dir).load_all();
      DFV_CHECK_MSG(result.datasets.size() == cfg.datasets.size(),
                    "campaign store: dataset count does not match the config");
      for (std::size_t i = 0; i < result.datasets.size(); ++i)
        result.datasets[i].spec = cfg.datasets[i];
      touch_cache_entry(store_dir);
      return result;
    } catch (const ContractError& e) {
      DFV_LOG_WARN("campaign store entry " << store_dir << " is corrupt (" << e.what()
                                           << "); evicting and regenerating");
      std::error_code ec;
      fs::remove_all(store_dir, ec);
    }
  }

  CampaignResult result = run_campaign(cfg);
  if (!save_campaign_store(result, store_dir))
    DFV_LOG_WARN("failed to publish campaign store entry " << store_dir);
  enforce_cache_budget_from_env(cache_dir);
  return result;
}

}  // namespace dfv::sim
