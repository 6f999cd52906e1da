// Run records and datasets: the output of the controlled experiment
// campaign, and the input to every analysis in the paper.
//
// A dataset corresponds to one (application, node count) pair and holds
// 175-225 runs, each with per-step execution times, per-step AriesNCL
// counter deltas, per-step LDMS io/sys aggregates, placement features,
// and the run's user neighborhood.
//
// Telemetry is allowed to be degraded: each step carries a quality mask
// (dfv::faults) and every aggregate here skips unusable or non-finite
// entries, so faulted datasets flow through the pipeline without
// poisoning the statistics. `Dataset::repair` is the choke point that
// detects and (per policy) fixes anomalies before analysis.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "faults/repair.hpp"
#include "mon/counters.hpp"
#include "mon/ldms.hpp"
#include "mon/mpip.hpp"

namespace dfv::sim {

/// One instrumented application run.
struct RunRecord {
  int job_id = 0;
  double submit_time_s = 0.0;  ///< campaign time of submission
  double start_time_s = 0.0;
  double end_time_s = 0.0;
  int num_routers = 0;  ///< NUM_ROUTERS placement feature
  int num_groups = 0;   ///< NUM_GROUPS placement feature

  std::vector<double> step_times;                ///< T entries
  std::vector<mon::CounterVec> step_counters;    ///< T x 13 AriesNCL deltas
  std::vector<mon::LdmsFeatures> step_ldms;      ///< T x (4 io + 4 sys)
  mon::MpiProfile profile;                       ///< whole-run mpiP profile
  std::vector<int> neighborhood_users;           ///< users with >=128-node overlapping jobs

  /// Per-step quality bits (dfv::faults::kQuality*). Empty means the run
  /// predates fault tracking: every step is pristine.
  std::vector<std::uint8_t> step_quality;
  bool profile_missing = false;  ///< mpiP profile lost for this run

  /// Total of the finite step times (a corrupt step cannot poison it).
  [[nodiscard]] double total_time_s() const;
  [[nodiscard]] int steps() const noexcept { return int(step_times.size()); }
  [[nodiscard]] std::uint8_t quality(int t) const noexcept {
    return step_quality.empty() ? std::uint8_t(faults::kQualityOk)
                                : step_quality[std::size_t(t)];
  }
  [[nodiscard]] bool step_usable(int t) const noexcept {
    return faults::step_usable(quality(t));
  }
  /// Non-owning fault-surface view for dfv::faults inject/repair.
  [[nodiscard]] faults::RunTelemetry telemetry() {
    return {step_times, step_counters, step_ldms, step_quality, profile, profile_missing};
  }
};

/// Aggregate outcome of `Dataset::repair` (one dataset).
struct RepairReport {
  faults::RepairPolicy policy = faults::RepairPolicy::Keep;
  int runs_in = 0;
  int runs_dropped = 0;     ///< truncated or beyond-repair runs removed
  int truncated_runs = 0;
  int bad_steps = 0;        ///< steps flagged dropped/corrupt across all runs
  int imputed_steps = 0;
  int wrapped_cells = 0;    ///< 2^32 wraparounds detected (unwound, Repair)
  int corrupt_cells = 0;
  int profiles_missing = 0;

  [[nodiscard]] bool any_anomaly() const noexcept {
    return runs_dropped > 0 || truncated_runs > 0 || bad_steps > 0 ||
           wrapped_cells > 0 || corrupt_cells > 0 || profiles_missing > 0;
  }
  [[nodiscard]] std::string summary() const;
};

/// All runs of one (application, node count) dataset.
struct Dataset {
  apps::DatasetSpec spec;
  std::vector<RunRecord> runs;

  [[nodiscard]] std::size_t num_runs() const noexcept { return runs.size(); }
  /// Nominal step count: the modal run length (robust to truncated runs).
  [[nodiscard]] int steps_per_run() const;

  /// Mean time per step across runs (Fig. 3's curves). Unusable or
  /// non-finite entries are skipped; each step averages over the runs
  /// that actually observed it.
  [[nodiscard]] std::vector<double> mean_step_curve() const;
  /// Mean per-step curve of one counter across runs (Fig. 7).
  [[nodiscard]] std::vector<double> mean_counter_curve(mon::Counter c) const;
  /// Total run times of all runs.
  [[nodiscard]] std::vector<double> total_times() const;

  /// Detect and handle degraded telemetry per `policy` (see
  /// faults::repair_run). Strict throws ContractError on any anomaly;
  /// Repair unwinds wraps and imputes gaps; Drop flags bad steps for
  /// consumers to skip; Keep is a no-op. Truncated or beyond-repair runs
  /// are removed under Repair/Drop. Deterministic and parallel-safe.
  [[nodiscard]] RepairReport repair(faults::RepairPolicy policy, const faults::RepairOptions& opt = {});
};

/// Inject faults into every run of `ds` per `spec`. Each run draws from
/// its own substream seed derived from (`stream_seed`, run index), so the
/// result is bit-identical for any thread count.
void inject_faults(Dataset& ds, const faults::FaultSpec& spec, std::uint64_t stream_seed);

/// Serialize a dataset to CSV (one row per run-step plus run metadata
/// columns) and back; used for the `dfv campaign --out` export, so the
/// generated data can be inspected with external tools.
///
/// Parsing validates structure (column count per row, full numeric
/// consumption of every numeric field) and throws ContractError with the
/// offending row on malformed input; the repair `policy` is then applied
/// to the parsed dataset (default Strict: any telemetry anomaly throws).
[[nodiscard]] std::string dataset_to_csv(const Dataset& ds);
[[nodiscard]] Dataset dataset_from_csv(
    const std::string& csv_text,
    faults::RepairPolicy policy = faults::RepairPolicy::Strict);

/// Atomic (temp + rename) write with a trailing integrity checksum.
[[nodiscard]] bool save_dataset(const Dataset& ds, const std::string& path);
/// Load and verify: a checksum mismatch always throws ContractError; a
/// missing footer throws only when `require_checksum` is set (exports
/// written by save_dataset carry one; ad-hoc CSVs need not).
[[nodiscard]] Dataset load_dataset(
    const std::string& path, bool require_checksum = false,
    faults::RepairPolicy policy = faults::RepairPolicy::Strict);

}  // namespace dfv::sim
