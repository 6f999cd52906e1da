// Campaign driver: reproduces the paper's data-collection protocol
// (§III-A): between December 2018 and April 2019, one or two jobs per
// application and node count were submitted to Cori's production queue
// every day under a single user account (the paper's User 8); each of
// the six (app, nodes) datasets ends up with 175-225 runs.
#pragma once

#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "sim/cluster.hpp"

namespace dfv::sim {

class CampaignBuilder;

struct CampaignConfig {
  std::uint64_t seed = 20181203;
  net::DragonflyConfig machine = net::DragonflyConfig::cori();
  ClusterParams cluster;
  int days = 120;              ///< campaign length (Dec..Apr)
  double jobs_per_day = 1.6;   ///< per dataset ("one or two jobs per day")
  double warmup_days = 2.0;    ///< fill the machine before the first run
  int quiet_users = 24;
  int neighborhood_min_nodes = 128;  ///< job-size qualification for blame lists
  int max_bg_job_nodes = 1024;       ///< clamp background job sizes (small machines)
  /// Worker threads while this campaign runs (0 = keep the global pool as
  /// configured by --threads / DFV_THREADS). Deliberately NOT part of the
  /// config fingerprint: results are bit-identical for any thread count
  /// (enforced by test_campaign's determinism test), so the cache entry
  /// must not depend on it.
  int threads = 0;
  /// Telemetry fault injection applied to the finished datasets (disabled
  /// by default). Every field participates in config_fingerprint(), so
  /// clean and faulted campaigns never share a cache entry. Injection is
  /// seeded per run and bit-identical across thread counts.
  faults::FaultSpec faults;
  /// Datasets to collect; defaults to the paper's six (app, nodes) pairs.
  std::vector<apps::DatasetSpec> datasets = apps::paper_datasets();

  /// Scaled-down configuration for tests: small machine, few days.
  [[nodiscard]] static CampaignConfig small(std::uint64_t seed = 42);

  /// Fluent builders over the two base configurations:
  ///   auto cfg = CampaignConfig::cori().days(30).seed(7).threads(4).build();
  [[nodiscard]] static CampaignBuilder cori();
  [[nodiscard]] static CampaignBuilder small_machine(std::uint64_t seed = 42);

  /// Throws ContractError on nonsense (days <= 0, jobs_per_day < 0, empty
  /// or malformed datasets, bad machine shape, out-of-range cluster
  /// parameters). run_campaign() validates on entry.
  void validate() const;
};

/// Fluent construction of a CampaignConfig. Methods mirror the config
/// fields; build() validates and returns the finished value.
class CampaignBuilder {
 public:
  explicit CampaignBuilder(CampaignConfig base) : cfg_(std::move(base)) {}

  CampaignBuilder& seed(std::uint64_t v) { cfg_.seed = v; return *this; }
  CampaignBuilder& machine(net::DragonflyConfig v) { cfg_.machine = v; return *this; }
  CampaignBuilder& cluster(ClusterParams v) { cfg_.cluster = std::move(v); return *this; }
  CampaignBuilder& days(int v) { cfg_.days = v; return *this; }
  CampaignBuilder& jobs_per_day(double v) { cfg_.jobs_per_day = v; return *this; }
  CampaignBuilder& warmup_days(double v) { cfg_.warmup_days = v; return *this; }
  CampaignBuilder& quiet_users(int v) { cfg_.quiet_users = v; return *this; }
  CampaignBuilder& neighborhood_min_nodes(int v) {
    cfg_.neighborhood_min_nodes = v;
    return *this;
  }
  CampaignBuilder& max_bg_job_nodes(int v) { cfg_.max_bg_job_nodes = v; return *this; }
  CampaignBuilder& threads(int v) { cfg_.threads = v; return *this; }
  CampaignBuilder& faults(faults::FaultSpec v) { cfg_.faults = v; return *this; }
  CampaignBuilder& datasets(std::vector<apps::DatasetSpec> v) {
    cfg_.datasets = std::move(v);
    return *this;
  }
  /// Append one dataset (clears the paper defaults on first use).
  CampaignBuilder& dataset(std::string app, int nodes);

  /// Validate and return the finished configuration.
  [[nodiscard]] CampaignConfig build() const;

 private:
  CampaignConfig cfg_;
  bool datasets_replaced_ = false;
};

struct CampaignResult {
  std::vector<Dataset> datasets;  ///< in apps::paper_datasets() order
  std::vector<sched::JobRecord> sacct;

  [[nodiscard]] const Dataset& dataset(const std::string& app, int nodes) const;
};

/// Run the full campaign.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

/// On-disk format for campaign cache entries. The column store is the
/// only one; the enum and its single value stay because perfbench still
/// names them, and go away when ROADMAP item 1 rewrites perfbench.
enum class CacheFormat {
  Store,  ///< mmap'd column-store entry (see sim/campaign_store.hpp)
};

/// Run the campaign, or load it from `cache_dir` if a column-store entry
/// `campaign_<fingerprint>.store` produced with an identical
/// configuration exists there (benches share one campaign). A corrupt
/// entry is evicted and regenerated. After a publish the
/// DFV_CACHE_MAX_BYTES budget (if set) is enforced by LRU eviction over
/// the cache directory.
[[nodiscard]] CampaignResult run_campaign_cached(const CampaignConfig& config,
                                                 const std::string& cache_dir,
                                                 CacheFormat format = CacheFormat::Store);

/// Stable hash of a configuration (names the cache directory entry).
[[nodiscard]] std::uint64_t config_fingerprint(const CampaignConfig& config);

}  // namespace dfv::sim
