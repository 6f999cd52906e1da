// dfv::api::Session — resident query state behind Session::handle().
//
// A ResidentCampaign is one loaded campaign plus the registry of every
// model the requests need: step-feature tables, the attention
// forecasters behind the point-forecast hot path, deviation GBR/RFE
// results, forecast evaluations, and the per-dataset neighborhood
// indexes every blame query reads. Each registry entry is built once
// per process, by the first request that needs it, and is immutable
// after that. The registry is thread-safe, so any number of Sessions
// over one campaign share it: the CLI builds one Session per invocation,
// and `dfv serve` builds one per shard over a single ResidentCampaign,
// so N shards hold one copy of the data and one copy of each model.
//
// With a cache directory, a forecaster is trained once per cache, not
// once per process: the first build of a (dataset, window) key publishes
// the trained model as `models/<key hash>.model` in the campaign's cache
// entry, and a later start loads it from there after checking its
// checksum, its full training key and its shape. A file that fails any
// check is retrained over and republished; a file that cannot be
// written only logs. A loaded model serves the same bytes as a freshly
// trained one.
//
// A Session itself keeps only the forward arena of the compiled
// point-forecast path; one thread uses a Session at a time.
//
// Determinism: every registry entry is produced by the deterministic
// analysis / ml layers, so any two sessions over the same options answer
// any request sequence bit-identically, whether or not they share a
// campaign. This is the property that lets test_serve demand
// byte-identical wire payloads from 1-shard and 8-shard servers.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "api/api.hpp"
#include "ml/compiled.hpp"
#include "sim/campaign.hpp"

namespace dfv::api {

/// How to build (or find in a cache directory) the resident campaign.
struct SessionOptions {
  sim::CampaignConfig config;
  std::string cache_dir;
  faults::RepairPolicy repair = faults::RepairPolicy::Repair;
  /// Cache entry format. The campaign store is the only one, so this has a
  /// single value; it stays because perfbench sets it, and goes away when
  /// ROADMAP item 1 rewrites perfbench.
  sim::CacheFormat cache_format = sim::CacheFormat::Store;
};

/// One campaign loaded into memory, repaired per policy, then immutable,
/// plus the model registry every Session over it shares. Shards of a
/// server share a single instance.
class ResidentCampaign {
 public:
  /// Generate (or load from `opt.cache_dir`) and repair the campaign.
  /// Validates the config; throws ContractError on nonsense.
  [[nodiscard]] static std::shared_ptr<const ResidentCampaign> load(
      const SessionOptions& opt);

  [[nodiscard]] const sim::CampaignConfig& config() const noexcept { return config_; }
  [[nodiscard]] const sim::CampaignResult& result() const noexcept { return result_; }
  /// Per-dataset repair outcomes (empty when faults are off).
  [[nodiscard]] const std::vector<sim::RepairReport>& repair_reports() const noexcept {
    return repair_reports_;
  }
  [[nodiscard]] const sim::Dataset& dataset(const std::string& app, int nodes) const {
    return result_.dataset(app, nodes);
  }
  /// The repair policy the campaign was loaded under.
  [[nodiscard]] faults::RepairPolicy repair_policy() const noexcept { return repair_; }
  /// The campaign's cache entry directory, where trained forecasters are
  /// kept beside the campaign; empty when the campaign has no cache entry.
  [[nodiscard]] const std::string& entry_dir() const noexcept { return entry_dir_; }

  /// The shared model registry (defined in session.cpp). Its entries are
  /// built on first use under per-key latches, so it is filled through a
  /// const campaign from any thread.
  struct Models;
  [[nodiscard]] Models& models() const noexcept { return *models_; }
  /// Registry builds completed so far (models trained, tables and
  /// results computed). Each key is built at most once.
  [[nodiscard]] std::size_t models_built() const;

  ~ResidentCampaign();

 private:
  ResidentCampaign();
  sim::CampaignConfig config_;
  sim::CampaignResult result_;
  faults::RepairPolicy repair_ = faults::RepairPolicy::Repair;
  std::string entry_dir_;
  std::vector<sim::RepairReport> repair_reports_;
  std::unique_ptr<Models> models_;
};

class Session {
 public:
  /// A session owning its campaign (loaded lazily on the first request
  /// that needs one — stateless requests never pay for it).
  explicit Session(SessionOptions opt);

  /// A session sharing an already-loaded campaign and its models (the
  /// server shard path). `campaign` may be null, in which case it loads
  /// lazily.
  Session(SessionOptions opt, std::shared_ptr<const ResidentCampaign> campaign);

  [[nodiscard]] const SessionOptions& options() const noexcept { return opt_; }

  /// Answer any request. Never throws: a ContractError surfaces as
  /// ErrorResponse{Contract}, anything else as ErrorResponse{Internal}.
  [[nodiscard]] Response handle(const Request& req);

  /// The resident campaign, loading it on first use.
  [[nodiscard]] const ResidentCampaign& campaign();

 private:
  [[nodiscard]] Response dispatch(const Request& req);
  [[nodiscard]] Response on(const CampaignSummaryRequest& q);
  [[nodiscard]] Response on(const ExportRequest& q);
  [[nodiscard]] Response on(const RunLookupRequest& q);
  [[nodiscard]] Response on(const NeighborhoodRequest& q);
  [[nodiscard]] Response on(const DeviationRequest& q);
  [[nodiscard]] Response on(const ForecastRequest& q);
  [[nodiscard]] Response on(const ForecastEvalRequest& q);
  [[nodiscard]] Response on(const ForecastGridRequest& q);
  [[nodiscard]] Response on(const TopologyRequest& q);
  [[nodiscard]] Response on(const SimulateRequest& q);
  [[nodiscard]] Response on(const StatsRequest& q);

  [[nodiscard]] const sim::Dataset& dataset(const std::string& app, int nodes);

  SessionOptions opt_;
  std::shared_ptr<const ResidentCampaign> campaign_;
  /// Forward arena of the compiled point-forecast path, reused by every
  /// model this session serves (it grows to fit the largest).
  ml::CompiledAttention::Scratch scratch_;
};

/// Server-side request path: decode `bytes`, dispatch on `session`,
/// encode the result. A malformed payload becomes ErrorResponse
/// {BadRequest} and a version mismatch ErrorResponse{VersionMismatch};
/// the return value is always exactly one encoded Response.
[[nodiscard]] std::string handle_encoded(Session& session, std::string_view bytes);

}  // namespace dfv::api
