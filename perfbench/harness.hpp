// Shared plumbing of the benchmark workloads: options, the result record
// and its JSON form, timing and resource readouts, and a digest that two
// builds which must agree can compare.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/campaign.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch space; the benchmark removes what it creates
  std::string cache_dir;   ///< primed campaign cache (analysis, serve)
  std::string trace_out;   ///< Chrome trace-event JSON path (traced runs)
  /// serve: share of NeighborhoodRequest in the mix (lookups absorb the
  /// difference from the default). The default is an assumption, not a
  /// measured production mix; the option exists to measure how much
  /// serve's figures depend on it.
  double neighborhood_share = 0.04;
};

/// How far (as a share) a traced pass's copy of library code may run from
/// the library before the run reports itself incorrect: the end-to-end
/// bound of BENCHMARK.json. A copy that has fallen behind an optimisation
/// of the library would otherwise time code the program no longer runs.
constexpr double kCopyTolerance = 0.25;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<Metric> metrics;  ///< end-to-end, named as in perfbench/reference.json
  std::vector<Metric> layers;   ///< per-layer, traced runs only

  void metric(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
  /// Count one failed operation and mark the run incorrect.
  void fail(const std::string& why);
};

/// One JSON object on one line (the benchmark's machine-readable output).
[[nodiscard]] std::string to_json(const Result& r, const Options& opt);

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

[[nodiscard]] double median(std::vector<double> v);
/// Peak resident set of the process so far.
[[nodiscard]] double peak_rss_mb();
/// User + system CPU time of the whole process.
[[nodiscard]] double process_cpu_s();

/// FNV-1a over the exact bytes of what it is fed.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of every dataset of a campaign (runs, steps, counters, LDMS
/// features, profiles, neighborhoods, quality masks).
[[nodiscard]] std::uint64_t campaign_digest(const dfv::sim::CampaignResult& r);

/// The paper-sized campaign the analysis and serve workloads read: the
/// small machine over 120 days, about 175 runs per dataset.
[[nodiscard]] dfv::sim::CampaignConfig paper_sized_config();

/// Where sim::run_campaign_cached keeps the store-format entry of `cfg`.
[[nodiscard]] std::string store_entry(const std::string& cache_dir,
                                      const dfv::sim::CampaignConfig& cfg);

/// Throw ContractError unless the paper-sized campaign is in opt.cache_dir
/// (opening an unprimed cache would silently generate it inside set-up).
void require_primed(const Options& opt);

/// Per-layer metrics from the traced pass: mean self time per call of
/// each span name, as "<span>_<unit>". Every listed span runs on the
/// workload, so one that never ran is a failure (a renamed span or a layer
/// the workload stopped calling).
void add_layer_times(Result& r, const std::map<std::string, trace::LayerStat>& stats,
                     const std::vector<std::pair<std::string, std::string>>& spans_units);

/// Stop tracing, write the Chrome trace (if asked) and return the
/// per-layer statistics of the traced pass.
[[nodiscard]] std::map<std::string, trace::LayerStat> finish_trace(const Options& opt);

/// Human-readable report of a result (stdout, before the JSON line).
void print_report(const Result& r);

/// Workloads. Each measures for opt.seconds; with opt.trace it measures an
/// untraced half and a traced half and reports layers and overhead.
[[nodiscard]] Result run_campaign_workload(const Options& opt);
[[nodiscard]] Result run_analysis_workload(const Options& opt);
[[nodiscard]] Result run_serve_workload(const Options& opt);
/// Generate the paper-sized campaign into opt.cache_dir unless present.
[[nodiscard]] Result prime_cache(const Options& opt);

}  // namespace perfbench
