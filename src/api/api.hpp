// dfv::api — the versioned session layer shared by the CLI and `dfv serve`.
//
// Every analysis the toolkit exposes is phrased as a request struct; a
// Session answers any request through one dispatch point over the
// resident state (a loaded campaign and its shared registry of trained
// GBR and attention models and window caches):
//
//   api::Session session(api::SessionOptions{...});
//   api::Response r = session.handle(api::DeviationRequest{}.app("MILC").nodes(128));
//
// `handle` never throws: contract violations and internal failures come
// back as a structured ErrorResponse, so a server can report them over
// the wire and the CLI can re-raise them. Requests carry no session
// state; two sessions built from the same options answer every request
// bit-identically regardless of thread count or shard placement (the
// serving determinism contract builds on this).
//
// The wire codec for these structs lives in api/wire.hpp; the protocol
// version below is embedded in every serialized request and response and
// checked in the `dfv serve` handshake.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "analysis/deviation.hpp"
#include "analysis/forecast.hpp"
#include "analysis/neighborhood.hpp"
#include "common/check.hpp"

namespace dfv::api {

/// Wire/request schema version. Bump on any incompatible change to the
/// request/response structs or their encoding; the serve handshake and
/// every envelope carry it, and a mismatch yields ErrorResponse
/// (ErrorCode::VersionMismatch), never undefined decoding.
///
/// v2: request envelope gained [u64 request_id][u32 deadline_ms] between
/// the version and the tag (idempotent retries + server-side deadlines);
/// ErrorResponse gained retry_after_ms; StatsRequest/StatsResponse added.
inline constexpr std::uint32_t kApiVersion = 2;

// ---------------------------------------------------------------------------
// Requests. Each struct has fluent setters so call sites read like the
// CLI flags they replace; all fields have sensible defaults.
// ---------------------------------------------------------------------------

/// Summary of the resident campaign: one row per dataset, with repair
/// outcomes when the campaign injected faults.
struct CampaignSummaryRequest {};

/// Export every resident dataset as CSV into `dir` (CLI `campaign --out`).
struct ExportRequest {
  std::string dir;

  ExportRequest& out_dir(std::string v) { dir = std::move(v); return *this; }
};

/// Look up one run by (app, nodes, run index) — the serving hot path.
struct RunLookupRequest {
  std::string app_name = "MILC";
  int node_count = 128;
  std::uint32_t run_index = 0;

  RunLookupRequest& app(std::string v) { app_name = std::move(v); return *this; }
  RunLookupRequest& nodes(int v) { node_count = v; return *this; }
  RunLookupRequest& run(std::uint32_t v) { run_index = v; return *this; }
};

/// Table III: rank neighbor users by blame for slow runs.
struct NeighborhoodRequest {
  std::string app_name = "MILC";
  int node_count = 128;
  double tau = 1.0;

  NeighborhoodRequest& app(std::string v) { app_name = std::move(v); return *this; }
  NeighborhoodRequest& nodes(int v) { node_count = v; return *this; }
  NeighborhoodRequest& threshold(double v) { tau = v; return *this; }
};

/// Fig. 9: per-counter relevance + CV MAPE of deviation prediction.
struct DeviationRequest {
  std::string app_name = "MILC";
  int node_count = 128;

  DeviationRequest& app(std::string v) { app_name = std::move(v); return *this; }
  DeviationRequest& nodes(int v) { node_count = v; return *this; }
};

/// Point forecast — the serving hot path. Predict the total time of the
/// next `k` steps of run `run_index` from the `m` steps before `t`
/// (history window [t - m, t)), using a session-resident attention model
/// trained once per (app, nodes, m, k, feature set).
struct ForecastRequest {
  std::string app_name = "MILC";
  int node_count = 128;
  std::uint32_t run_index = 0;
  int t = 10;  ///< window center: history is [t - m, t)
  analysis::WindowConfig window{10, 20, analysis::FeatureSet::App};

  ForecastRequest& app(std::string v) { app_name = std::move(v); return *this; }
  ForecastRequest& nodes(int v) { node_count = v; return *this; }
  ForecastRequest& run(std::uint32_t v) { run_index = v; return *this; }
  ForecastRequest& center(int v) { t = v; return *this; }
  ForecastRequest& m(int v) { window.m = v; return *this; }
  ForecastRequest& k(int v) { window.k = v; return *this; }
  ForecastRequest& features(analysis::FeatureSet v) { window.features = v; return *this; }
};

/// Figs. 8/10, one cell: cross-validated forecasting MAPE.
struct ForecastEvalRequest {
  std::string app_name = "MILC";
  int node_count = 128;
  analysis::WindowConfig window{10, 20, analysis::FeatureSet::App};

  ForecastEvalRequest& app(std::string v) { app_name = std::move(v); return *this; }
  ForecastEvalRequest& nodes(int v) { node_count = v; return *this; }
  ForecastEvalRequest& m(int v) { window.m = v; return *this; }
  ForecastEvalRequest& k(int v) { window.k = v; return *this; }
  ForecastEvalRequest& features(analysis::FeatureSet v) {
    window.features = v;
    return *this;
  }
};

/// Figs. 8/10, the whole ablation grid (cell-parallel on the exec pool).
struct ForecastGridRequest {
  std::string app_name = "MILC";
  int node_count = 128;
  std::vector<analysis::WindowConfig> cells;

  ForecastGridRequest& app(std::string v) { app_name = std::move(v); return *this; }
  ForecastGridRequest& nodes(int v) { node_count = v; return *this; }
  ForecastGridRequest& cell(const analysis::WindowConfig& c) {
    cells.push_back(c);
    return *this;
  }
};

/// Describe the dragonfly topology (stateless; no campaign needed).
struct TopologyRequest {
  int groups = 0;  ///< 0 = Cori-scale, else a small machine with N groups

  TopologyRequest& group_count(int v) { groups = v; return *this; }
};

/// Live serving counters (connections, shed/evicted totals). Answered by
/// the receiving shard from the server's atomics — a bare Session knows
/// nothing of connections and answers all-zero.
struct StatsRequest {};

/// Packet-level engines on synthetic traffic (stateless).
struct SimulateRequest {
  int groups = 6;
  std::string pattern = "uniform";  ///< uniform | adversarial | hotspot
  std::string policy = "ugal";      ///< minimal | valiant | ugal
  double load = 0.3;
  int packets = 300;

  SimulateRequest& group_count(int v) { groups = v; return *this; }
  SimulateRequest& traffic(std::string v) { pattern = std::move(v); return *this; }
  SimulateRequest& routing(std::string v) { policy = std::move(v); return *this; }
  SimulateRequest& offered_load(double v) { load = v; return *this; }
  SimulateRequest& packet_count(int v) { packets = v; return *this; }
};

/// The position of an alternative is its wire tag (request tag = index
/// + 1; see api/wire.cpp): append new requests at the end, never reorder.
using Request =
    std::variant<CampaignSummaryRequest, ExportRequest, RunLookupRequest,
                 NeighborhoodRequest, DeviationRequest, ForecastRequest,
                 ForecastEvalRequest, ForecastGridRequest, TopologyRequest,
                 SimulateRequest, StatsRequest>;

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

enum class ErrorCode : std::uint32_t {
  Contract = 1,          ///< DFV_CHECK violation while handling the request
  BadRequest = 2,        ///< malformed/truncated wire payload
  VersionMismatch = 3,   ///< envelope version != kApiVersion
  Internal = 4,          ///< any other exception
  /// The peer shed the request; retry_after_ms is set. dfv serve itself
  /// never sends it (it has no admission gate); RetryClient honors it.
  Overloaded = 5,
  DeadlineExceeded = 6,  ///< the envelope deadline expired server-side
  ShuttingDown = 7,      ///< server stopped before the response was ready
};

[[nodiscard]] const char* to_string(ErrorCode c) noexcept;

/// Structured failure. `message` is the full contract/what() text so the
/// CLI can re-raise it with identical wording.
struct ErrorResponse {
  ErrorCode code = ErrorCode::Internal;
  std::string message;
  /// Backoff hint, nonzero only for Overloaded: the server suggests the
  /// client wait at least this long before the retry.
  std::uint32_t retry_after_ms = 0;
};

struct CampaignSummaryRow {
  std::string label;
  std::uint32_t runs = 0;
  std::uint32_t steps_per_run = 0;
  // Repair outcomes (meaningful only when the campaign injected faults).
  std::uint32_t runs_dropped = 0;
  std::uint32_t bad_steps = 0;
  std::uint32_t imputed_steps = 0;
  std::uint32_t wrapped_cells = 0;
  std::uint32_t profiles_missing = 0;
};

struct CampaignSummaryResponse {
  bool faulted = false;  ///< true when repair reports are populated
  std::vector<CampaignSummaryRow> rows;
};

struct ExportResponse {
  struct Item {
    std::string path;
    bool ok = false;
  };
  std::vector<Item> items;
};

struct RunLookupResponse {
  std::int32_t job_id = 0;
  double submit_time_s = 0.0;
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  double total_time_s = 0.0;
  std::int32_t num_routers = 0;
  std::int32_t num_groups = 0;
  std::uint32_t steps = 0;
  bool profile_missing = false;
};

struct NeighborhoodResponse {
  analysis::NeighborhoodResult result;
};

struct DeviationResponse {
  analysis::DeviationResult result;
};

struct ForecastResponse {
  double predicted = 0.0;    ///< attention forecast of the next k steps' total
  double persistence = 0.0;  ///< baseline: k * mean(last m observed step times)
  std::uint32_t model_windows = 0;  ///< training windows behind the resident model
};

struct ForecastEvalResponse {
  analysis::ForecastEval eval;
};

struct ForecastGridResponse {
  std::vector<analysis::ForecastGridCell> cells;
};

struct TopologyResponse {
  std::string description;
};

struct SimulateResponse {
  struct Engine {
    std::string name;
    bool deadlocked = false;
    double mean_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double mean_hops = 0.0;
    double throughput_bps = 0.0;
  };
  std::string pattern;
  std::string policy;
  double load = 0.0;
  std::vector<Engine> engines;
};

/// Serving counters (see StatsRequest). All totals are since start().
struct StatsResponse {
  std::uint32_t shards = 0;
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t local = 0;
  std::uint64_t forwarded = 0;         ///< always 0: dfv serve answers on the receiving shard
  std::uint64_t shed_overload = 0;     ///< always 0: dfv serve has no admission gate
  std::uint64_t shed_deadline = 0;     ///< requests answered DeadlineExceeded
  std::uint64_t evicted_stalled = 0;   ///< connections dropped by I/O timeouts
  std::uint64_t shutdown_aborted = 0;  ///< requests answered ShuttingDown at drain expiry
};

/// The position of an alternative is its wire tag (response tag = index,
/// so ErrorResponse is 0): append new responses at the end, never
/// reorder. serve::RetryClient peeks at tag 0 to spot an ErrorResponse
/// until the v3 cleanup deletes its Overloaded branch.
using Response =
    std::variant<ErrorResponse, CampaignSummaryResponse, ExportResponse,
                 RunLookupResponse, NeighborhoodResponse, DeviationResponse,
                 ForecastResponse, ForecastEvalResponse, ForecastGridResponse,
                 TopologyResponse, SimulateResponse, StatsResponse>;

/// Re-raise an ErrorResponse as the exception it came from: Contract ->
/// ContractError (so CLI error paths keep their exact pre-api wording and
/// exit codes), anything else -> std::runtime_error.
[[noreturn]] void rethrow(const ErrorResponse& err);

/// Parse helper shared by the CLI and SimulateRequest handling; throws
/// ContractError on an unknown name.
[[nodiscard]] analysis::FeatureSet parse_feature_set(const std::string& name);

}  // namespace dfv::api
