#include "api/session.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/window_cache.hpp"
#include "api/wire.hpp"
#include "common/integrity.hpp"
#include "common/log.hpp"
#include "ml/attention.hpp"
#include "ml/compiled.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "net/vc_sim.hpp"
#include "sim/campaign_store.hpp"

namespace dfv::api {

const char* to_string(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::Contract: return "contract";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::VersionMismatch: return "version-mismatch";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::ShuttingDown: return "shutting-down";
  }
  return "unknown";
}

void rethrow(const ErrorResponse& err) {
  if (err.code == ErrorCode::Contract) throw ContractError(err.message);
  throw std::runtime_error(err.message);
}

analysis::FeatureSet parse_feature_set(const std::string& name) {
  for (auto cand : {analysis::FeatureSet::App, analysis::FeatureSet::AppPlacement,
                    analysis::FeatureSet::AppPlacementIo,
                    analysis::FeatureSet::AppPlacementIoSys})
    if (name == analysis::to_string(cand)) return cand;
  DFV_CHECK_MSG(false, "unknown feature set '"
                           << name
                           << "' (expected app | app+placement | app+placement+io | "
                              "app+placement+io+sys)");
}

// ---------------------------------------------------------------------------
// The shared model registry.
// ---------------------------------------------------------------------------

namespace {

/// Build-once map. get(key, build) returns the entry for `key`, running
/// `build` only when no earlier call produced it. The map lock is never
/// held during a build: a key being built is marked in `building_`, and
/// other callers of that key wait for it while other keys proceed. A
/// build that throws leaves no entry, so the next caller of the key
/// retries it. Entries are never replaced or erased, so returned
/// references live as long as the memo.
template <class V>
class Memo {
 public:
  template <class Build>
  const V& get(const std::string& key, Build&& build) {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return building_.count(key) == 0; });
    if (const auto it = ready_.find(key); it != ready_.end()) return *it->second;
    building_.insert(key);
    lock.unlock();
    std::unique_ptr<const V> value;
    std::exception_ptr failure;
    try {
      value = std::make_unique<const V>(build());
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    building_.erase(key);
    done_.notify_all();
    if (failure) std::rethrow_exception(failure);
    ++builds_;
    return *ready_.emplace(key, std::move(value)).first->second;
  }

  /// Builds completed so far; one per key when the latch holds.
  [[nodiscard]] std::size_t builds() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return builds_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable done_;
  std::set<std::string> building_;
  std::map<std::string, std::unique_ptr<const V>> ready_;
  std::size_t builds_ = 0;
};

/// The compiled snapshot of a trained attention model plus the training
/// metadata the response reports. Compiling at build time moves the
/// operand packing out of the per-request path.
struct ResidentForecaster {
  ml::CompiledAttention compiled;
  std::uint32_t windows = 0;
};

std::string dataset_key(const std::string& app, int nodes) {
  return app + "/" + std::to_string(nodes);
}

std::string window_key(const std::string& app, int nodes,
                       const analysis::WindowConfig& wcfg) {
  return dataset_key(app, nodes) + "/" + std::to_string(wcfg.m) + "/" +
         std::to_string(wcfg.k) + "/" + analysis::to_string(wcfg.features);
}

}  // namespace

struct ResidentCampaign::Models {
  Memo<analysis::StepFeatureCache> features;  ///< per dataset
  Memo<ResidentForecaster> forecasters;       ///< per (dataset, window)
  Memo<analysis::DeviationResult> deviations;  ///< per dataset
  Memo<analysis::ForecastEval> forecast_evals;  ///< per (dataset, window)
  Memo<analysis::NeighborhoodIndex> neighborhoods;  ///< per dataset
};

namespace {

/// Per-dataset step-feature tables, shared by every forecast against
/// that dataset.
const analysis::StepFeatureCache& feature_cache(const ResidentCampaign& c,
                                                const std::string& app, int nodes) {
  DFV_CHECK_MSG(nodes > 0, "node count must be positive");
  return c.models().features.get(dataset_key(app, nodes), [&] {
    return analysis::StepFeatureCache(c.dataset(app, nodes));
  });
}

/// Format tag that opens every model file's key line. Bump it when the
/// bytes a training run produces move (Attention.SerializedModelGolden
/// pins them) or the file layout changes: a file under another tag never
/// matches its key, so the model is retrained rather than served stale.
constexpr std::string_view kModelFormat = "dfv-attention-model 1";

/// A trained forecaster's file in its campaign's cache entry:
///
///   <entry>/models/<fnv1a64(key) hex>.model
///     <key>\n              kModelFormat, then everything the model is a
///                          function of: the campaign fingerprint, repair
///                          policy, dataset, window and every
///                          AttentionParams field (doubles by bit pattern)
///     windows=<n>\n        ForecastResponse::model_windows
///     <model bytes>\n      ml::AttentionForecaster::to_bytes
///     #dfv-crc <hex>\n     FNV-1a of everything above
///
/// The file is published by temp file and rename, without fsync: a torn
/// file fails its checksum and costs one retrain.
struct ModelFile {
  std::string key;
  std::string dir;   ///< <entry>/models; empty when the campaign has no cache entry
  std::string path;  ///< the file in `dir`, or empty

  ModelFile(const ResidentCampaign& c, const std::string& app, int nodes,
            const analysis::WindowConfig& wcfg, const ml::AttentionParams& p) {
    std::ostringstream os;
    os << kModelFormat << std::hex << " fingerprint=" << sim::config_fingerprint(c.config())
       << std::dec << " repair=" << faults::to_string(c.repair_policy()) << " app=" << app
       << " nodes=" << nodes << " m=" << wcfg.m << " k=" << wcfg.k
       << " features=" << analysis::to_string(wcfg.features) << " d_model=" << p.d_model
       << " d_hidden=" << p.d_hidden << " epochs=" << p.epochs << " batch=" << p.batch
       << std::hex << " lr=" << std::bit_cast<std::uint64_t>(p.lr)
       << " weight_decay=" << std::bit_cast<std::uint64_t>(p.weight_decay)
       << " seed=" << p.seed;
    key = os.str();
    if (c.entry_dir().empty()) return;
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.model",
                  static_cast<unsigned long long>(fnv1a64(key)));
    dir = c.entry_dir() + "/models";
    path = dir + "/" + name;
  }

  /// The stored forecaster, or nullopt when there is no file or it does
  /// not verify: checksum, key, and a model of exactly shape (m, f, p).
  [[nodiscard]] std::optional<ResidentForecaster> load(int m, int f,
                                                       const ml::AttentionParams& p) const {
    if (path.empty()) return std::nullopt;
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::string content{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    const auto reject = [&](const std::string& why) -> std::optional<ResidentForecaster> {
      DFV_LOG_WARN("model file " << path << " " << why << "; retraining");
      return std::nullopt;
    };
    if (verify_and_strip_checksum(content) != ChecksumStatus::Ok)
      return reject("fails its checksum");
    // What verified is "<key>\nwindows=<n>\n<model bytes>\n".
    std::string_view rest(content);
    const auto line = [&rest] {
      const std::size_t eol = rest.find('\n');
      const std::string_view out = rest.substr(0, eol);
      rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
      return out;
    };
    if (line() != key) return reject("holds another key");
    constexpr std::string_view kWindows = "windows=";
    const std::string_view count = line();
    std::uint32_t windows = 0;
    const char* count_end = count.data() + count.size();
    if (!count.starts_with(kWindows) ||
        std::from_chars(count.data() + kWindows.size(), count_end, windows).ptr != count_end ||
        !rest.ends_with('\n'))
      return reject("has no window count");
    rest.remove_suffix(1);
    try {
      const auto model = ml::AttentionForecaster::from_bytes(m, f, p, rest);
      DFV_LOG_INFO("loaded forecaster from " << path);
      return ResidentForecaster{model.compile(), windows};
    } catch (const ContractError& e) {
      return reject(e.what());
    }
  }

  /// Publish `model` write-once; a failure only logs (the model is served
  /// from memory either way).
  void publish(std::uint32_t windows, const ml::AttentionForecaster& model) const {
    if (path.empty()) return;
    std::string content = key + "\nwindows=" + std::to_string(windows) + "\n" +
                          model.to_bytes() + "\n";
    append_checksum_footer(content);
    // Not create_directories: an entry evicted meanwhile stays gone.
    std::error_code ec;
    std::filesystem::create_directory(dir, ec);
    if (ec || !atomic_write_file(path, content))
      DFV_LOG_WARN("failed to publish model file " << path);
  }
};

/// The attention model for one (app, nodes, window) key: loaded from the
/// campaign's cache entry when a verifying file is there, else trained
/// and published there.
const ResidentForecaster& forecaster(const ResidentCampaign& c, const std::string& app,
                                     int nodes, const analysis::WindowConfig& wcfg) {
  DFV_CHECK_MSG(wcfg.m >= 1 && wcfg.k >= 1, "forecast window needs m >= 1 and k >= 1");
  return c.models().forecasters.get(window_key(app, nodes, wcfg), [&] {
    const sim::Dataset& ds = c.dataset(app, nodes);
    const int width = analysis::feature_count(wcfg.features);
    const ml::AttentionParams params = analysis::ForecastConfig{}.attention;
    const ModelFile file(c, app, nodes, wcfg, params);
    if (auto hit = file.load(wcfg.m, width, params)) return std::move(*hit);
    const analysis::StepFeatureCache& cache = feature_cache(c, app, nodes);
    const analysis::WindowIndex index =
        analysis::build_window_index(ds, cache, wcfg.m, wcfg.k);
    const analysis::WindowViews views =
        analysis::make_window_views(cache, index, wcfg.features);
    ml::AttentionForecaster model(wcfg.m, width, params);
    model.fit(views.all(), index.y);
    const auto windows = std::uint32_t(index.size());
    file.publish(windows, model);
    return ResidentForecaster{model.compile(), windows};
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// ResidentCampaign.
// ---------------------------------------------------------------------------

ResidentCampaign::ResidentCampaign() : models_(std::make_unique<Models>()) {}
ResidentCampaign::~ResidentCampaign() = default;

std::size_t ResidentCampaign::models_built() const {
  return models_->features.builds() + models_->forecasters.builds() +
         models_->deviations.builds() + models_->forecast_evals.builds() +
         models_->neighborhoods.builds();
}

std::shared_ptr<const ResidentCampaign> ResidentCampaign::load(
    const SessionOptions& opt) {
  opt.config.validate();
  auto rc = std::shared_ptr<ResidentCampaign>(new ResidentCampaign());
  rc->config_ = opt.config;
  rc->repair_ = opt.repair;
  if (opt.cache_dir.empty()) {
    rc->result_ = sim::run_campaign(opt.config);
  } else {
    rc->result_ = sim::run_campaign_cached(opt.config, opt.cache_dir, opt.cache_format);
    // Models are kept only beside a committed entry (a failed publish
    // leaves none), so they live and die with the campaign they fit.
    const std::string dir = sim::campaign_store_dir(opt.config, opt.cache_dir);
    if (sim::campaign_store_exists(dir)) rc->entry_dir_ = dir;
  }
  // Apply the degraded-data policy at the load boundary so every request
  // downstream sees repaired (or flagged) telemetry.
  if (opt.config.faults.enabled()) {
    for (auto& ds : rc->result_.datasets) {
      rc->repair_reports_.push_back(ds.repair(opt.repair));
      DFV_LOG_INFO("repair " << ds.spec.label() << ": "
                             << rc->repair_reports_.back().summary());
    }
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------------

Session::Session(SessionOptions opt) : Session(std::move(opt), nullptr) {}

Session::Session(SessionOptions opt, std::shared_ptr<const ResidentCampaign> campaign)
    : opt_(std::move(opt)), campaign_(std::move(campaign)) {
  opt_.config.validate();
}

const ResidentCampaign& Session::campaign() {
  if (!campaign_) campaign_ = ResidentCampaign::load(opt_);
  return *campaign_;
}

// Error boundary: per-request validation lives in the on() handlers and
// the analysis layer; this frame only maps exceptions to responses.
// dfv-lint: allow(contract): the on() handlers own the DFV_CHECK validation
Response Session::handle(const Request& req) {
  try {
    return dispatch(req);
  } catch (const ContractError& e) {
    return ErrorResponse{ErrorCode::Contract, e.what()};
  } catch (const std::exception& e) {
    return ErrorResponse{ErrorCode::Internal, e.what()};
  }
}

// dfv-lint: allow(contract): pure fan-out; each on() overload validates
Response Session::dispatch(const Request& req) {
  return std::visit([&](const auto& q) { return on(q); }, req);
}

const sim::Dataset& Session::dataset(const std::string& app, int nodes) {
  return campaign().dataset(app, nodes);
}

// dfv-lint: allow(contract): the request carries no inputs to validate
Response Session::on(const CampaignSummaryRequest&) {
  const ResidentCampaign& c = campaign();
  CampaignSummaryResponse resp;
  resp.faulted = !c.repair_reports().empty();
  for (std::size_t i = 0; i < c.result().datasets.size(); ++i) {
    const sim::Dataset& ds = c.result().datasets[i];
    CampaignSummaryRow row;
    row.label = ds.spec.label();
    row.runs = std::uint32_t(ds.num_runs());
    row.steps_per_run = std::uint32_t(ds.steps_per_run());
    if (resp.faulted) {
      const sim::RepairReport& rep = c.repair_reports()[i];
      row.runs_dropped = std::uint32_t(rep.runs_dropped);
      row.bad_steps = std::uint32_t(rep.bad_steps);
      row.imputed_steps = std::uint32_t(rep.imputed_steps);
      row.wrapped_cells = std::uint32_t(rep.wrapped_cells);
      row.profiles_missing = std::uint32_t(rep.profiles_missing);
    }
    resp.rows.push_back(std::move(row));
  }
  return resp;
}

Response Session::on(const ExportRequest& q) {
  DFV_CHECK_MSG(!q.dir.empty(), "export needs a destination directory");
  ExportResponse resp;
  for (const sim::Dataset& ds : campaign().result().datasets) {
    ExportResponse::Item item;
    item.path = q.dir + "/" + ds.spec.label() + ".csv";
    item.ok = sim::save_dataset(ds, item.path);
    resp.items.push_back(std::move(item));
  }
  return resp;
}

Response Session::on(const RunLookupRequest& q) {
  const sim::Dataset& ds = dataset(q.app_name, q.node_count);
  DFV_CHECK_MSG(std::size_t(q.run_index) < ds.num_runs(),
                "run index " << q.run_index << " out of range for " << ds.spec.label()
                             << " (" << ds.num_runs() << " runs)");
  const sim::RunRecord& run = ds.runs[q.run_index];
  RunLookupResponse resp;
  resp.job_id = run.job_id;
  resp.submit_time_s = run.submit_time_s;
  resp.start_time_s = run.start_time_s;
  resp.end_time_s = run.end_time_s;
  resp.total_time_s = run.total_time_s();
  resp.num_routers = run.num_routers;
  resp.num_groups = run.num_groups;
  resp.steps = std::uint32_t(run.steps());
  resp.profile_missing = run.profile_missing;
  return resp;
}

Response Session::on(const NeighborhoodRequest& q) {
  DFV_CHECK_MSG(std::isfinite(q.tau) && q.tau > 0.0,
                "optimality threshold tau must be finite and positive, got " << q.tau);
  DFV_CHECK_MSG(q.node_count > 0, "node count must be positive");
  const ResidentCampaign& c = campaign();
  const analysis::NeighborhoodIndex& index = c.models().neighborhoods.get(
      dataset_key(q.app_name, q.node_count),
      [&] { return analysis::NeighborhoodIndex(c.dataset(q.app_name, q.node_count)); });
  return NeighborhoodResponse{index.query(q.tau)};
}

Response Session::on(const DeviationRequest& q) {
  DFV_CHECK_MSG(q.node_count > 0, "node count must be positive");
  const ResidentCampaign& c = campaign();
  return DeviationResponse{
      c.models().deviations.get(dataset_key(q.app_name, q.node_count), [&] {
        return analysis::analyze_deviation(c.dataset(q.app_name, q.node_count));
      })};
}

Response Session::on(const ForecastRequest& q) {
  const sim::Dataset& ds = dataset(q.app_name, q.node_count);
  DFV_CHECK_MSG(std::size_t(q.run_index) < ds.num_runs(),
                "run index " << q.run_index << " out of range for " << ds.spec.label()
                             << " (" << ds.num_runs() << " runs)");
  const ResidentForecaster& rf = forecaster(campaign(), q.app_name, q.node_count, q.window);
  const analysis::StepFeatureCache& cache = feature_cache(campaign(), q.app_name, q.node_count);
  const analysis::RunFeatureTable& table = cache.run(q.run_index);
  const int m = q.window.m;
  DFV_CHECK_MSG(q.t >= m && q.t <= table.steps,
                "window [" << (q.t - m) << ", " << q.t << ") not contained in run of "
                           << table.steps << " steps");
  DFV_CHECK_MSG(table.span_clean(q.t - m, q.t),
                "history window touches degraded telemetry steps");

  // Gather the m strided superset rows into one contiguous window.
  const int width = analysis::feature_count(q.window.features);
  std::vector<double> window(std::size_t(m) * std::size_t(width));
  for (int i = 0; i < m; ++i) {
    const double* row = table.step_row(q.t - m + i);
    for (int f = 0; f < width; ++f)
      window[std::size_t(i) * std::size_t(width) + std::size_t(f)] = row[f];
  }

  ForecastResponse resp;
  // The compiled forward reuses this session's scratch arena; it is
  // bit-identical to the reference forward (pinned by test_compiled).
  resp.predicted = rf.compiled.predict_one(window, scratch_);
  // Persistence baseline, summed in the same (reverse) order as the
  // window index builds it so the two paths agree bitwise.
  const sim::RunRecord& run = ds.runs[q.run_index];
  double recent = 0.0;
  for (int j = 0; j < m; ++j) recent += run.step_times[std::size_t(q.t - 1 - j)];
  resp.persistence = recent / double(m) * double(q.window.k);
  resp.model_windows = rf.windows;
  return resp;
}

Response Session::on(const ForecastEvalRequest& q) {
  DFV_CHECK_MSG(q.window.m >= 1 && q.window.k >= 1,
                "forecast window needs m >= 1 and k >= 1");
  const ResidentCampaign& c = campaign();
  return ForecastEvalResponse{c.models().forecast_evals.get(
      window_key(q.app_name, q.node_count, q.window), [&] {
        return analysis::evaluate_forecast(c.dataset(q.app_name, q.node_count), q.window,
                                           {});
      })};
}

Response Session::on(const ForecastGridRequest& q) {
  DFV_CHECK_MSG(!q.cells.empty(), "forecast grid needs at least one cell");
  return ForecastGridResponse{
      analysis::evaluate_forecast_grid(dataset(q.app_name, q.node_count), q.cells, {})};
}

Response Session::on(const TopologyRequest& q) {
  DFV_CHECK_MSG(q.groups >= 0, "group count must be >= 0 (0 = Cori-scale)");
  const net::DragonflyConfig cfg = q.groups > 0 ? net::DragonflyConfig::small(q.groups)
                                                : net::DragonflyConfig::cori();
  return TopologyResponse{net::Topology(cfg).describe()};
}

namespace {

net::TrafficPattern parse_traffic_pattern(const std::string& name) {
  if (name == "uniform") return net::TrafficPattern::Uniform;
  if (name == "adversarial") return net::TrafficPattern::AdversarialShift;
  if (name == "hotspot") return net::TrafficPattern::Hotspot;
  DFV_CHECK_MSG(false, "unknown traffic pattern '"
                           << name << "' (expected uniform | adversarial | hotspot)");
}

net::RoutingPolicy parse_routing_policy(const std::string& name) {
  for (auto cand : {net::RoutingPolicy::Minimal, net::RoutingPolicy::Valiant,
                    net::RoutingPolicy::Ugal})
    if (name == net::to_string(cand)) return cand;
  DFV_CHECK_MSG(false,
                "unknown routing policy '" << name << "' (expected minimal | valiant | ugal)");
}

}  // namespace

Response Session::on(const SimulateRequest& q) {
  DFV_CHECK_MSG(q.packets > 0, "packet count must be positive");
  DFV_CHECK_MSG(q.load > 0.0, "offered load must be positive");
  const net::TrafficPattern pattern = parse_traffic_pattern(q.pattern);
  const net::RoutingPolicy policy = parse_routing_policy(q.policy);
  const net::Topology topo(net::DragonflyConfig::small(q.groups));

  SimulateResponse resp;
  resp.pattern = net::to_string(pattern);
  resp.policy = net::to_string(policy);
  resp.load = q.load;
  {
    net::PacketSimParams params;
    params.policy = policy;
    net::PacketSim sim(topo, params, 1);
    const auto s = sim.run_synthetic(pattern, q.load, q.packets);
    resp.engines.push_back({"source-routed", false, s.mean_latency, s.p99_latency,
                            s.mean_hops, s.throughput});
  }
  {
    net::VcSimParams params;
    params.policy = policy;
    net::VcPacketSim sim(topo, params, 1);
    const auto s = sim.run_synthetic(pattern, q.load, q.packets);
    resp.engines.push_back({"credit/VC", s.deadlocked, s.mean_latency, s.p99_latency,
                            s.mean_hops, s.throughput});
  }
  return resp;
}

// A bare Session has no serving counters; the server intercepts
// StatsRequest before dispatch and fills this in from its atomics. The
// zeroed answer here keeps the in-process (CLI) path total.
Response Session::on(const StatsRequest&) { return StatsResponse{}; }

// ---------------------------------------------------------------------------
// Encoded entry point (shared by serve shards and the protocol tests).
// ---------------------------------------------------------------------------

// dfv-lint: allow(contract): decode_request IS the validation; failures map to errors
std::string handle_encoded(Session& session, std::string_view bytes) {
  Request req;
  try {
    req = decode_request(bytes);
  } catch (const VersionError& e) {
    return encode_response(Response{ErrorResponse{ErrorCode::VersionMismatch, e.what()}});
  } catch (const ContractError& e) {
    return encode_response(Response{ErrorResponse{ErrorCode::BadRequest, e.what()}});
  }
  return encode_response(session.handle(req));
}

}  // namespace dfv::api
