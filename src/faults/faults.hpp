// dfv::faults — seeded, deterministic telemetry fault injection and the
// degraded-data contract shared by every consumer of monitoring data.
//
// The paper's analysis chain hangs off three lossy production telemetry
// sources: LDMS counter streams (dropped one-second samples), AriesNCL/
// PAPI counter reads (32-bit hardware counters that wrap, garbage values
// under node failures), and mpiP/sacct logs (profiles missing when a job
// is killed). The synthetic campaign emits perfect data; this subsystem
// perturbs it with configurable fault models so the downstream pipeline
// (dataset CSV round-trip, deviation GBR, attention forecasting) can be
// exercised — and quantified — against realistic dirt instead of silently
// assuming clean, complete, finite inputs.
//
// Determinism contract: injection draws every random decision from a
// per-run RNG substream (`exec::substream_seed`), never from a shared
// generator, so a faulted campaign is bit-identical across thread counts
// exactly like a clean one.
#pragma once

#include <cstdint>
#include <string>

namespace dfv::faults {

// ---------------------------------------------------------------------------
// Per-step quality masks (carried in sim::RunRecord::step_quality).
// ---------------------------------------------------------------------------

/// Bitmask describing what happened to one step's telemetry. An empty
/// quality vector on a run means "all steps Ok" (the clean fast path).
enum : std::uint8_t {
  kQualityOk = 0,
  kQualityDropped = 1 << 0,    ///< LDMS/counter sample lost (gap in stream)
  kQualityCorrupt = 1 << 1,    ///< NaN/Inf/spike garbage detected in a cell
  kQualityWrapped = 1 << 2,    ///< 2^32 counter wraparound detected & unwound
  kQualityTruncated = 1 << 3,  ///< step lost to an early end of the run
  kQualityImputed = 1 << 4,    ///< values reconstructed by repair
};

/// A step is usable by the analyses when nothing bad happened to it, or
/// when repair reconstructed it. A wrapped-then-unwound counter is exact,
/// so kQualityWrapped alone does not disqualify a step.
[[nodiscard]] constexpr bool step_usable(std::uint8_t quality) noexcept {
  constexpr std::uint8_t bad = kQualityDropped | kQualityCorrupt | kQualityTruncated;
  return (quality & bad) == 0 || (quality & kQualityImputed) != 0;
}

// ---------------------------------------------------------------------------
// Fault kinds and the injection spec.
// ---------------------------------------------------------------------------

/// What each kind models on a Cori-like production system:
///  Dropout        — LDMS misses a sampling interval; the step's counter and
///                   io/sys aggregates are simply absent (NaN).
///  Wraparound     — a 32-bit Aries counter wraps between reads; the delta
///                   comes back 2^32 too small (negative).
///  Corrupt        — garbage from a flaky node: NaN, Inf, or an absurd spike
///                   in one telemetry cell (counter, LDMS feature, or the
///                   step time itself).
///  Truncate       — the run dies early; the tail steps never get recorded.
///  MissingProfile — mpiP output lost (job killed before MPI_Finalize).
enum class FaultKind : std::uint8_t {
  Dropout = 1 << 0,
  Wraparound = 1 << 1,
  Corrupt = 1 << 2,
  Truncate = 1 << 3,
  MissingProfile = 1 << 4,
};

inline constexpr std::uint8_t kAllFaultKinds = 0x1f;

[[nodiscard]] const char* to_string(FaultKind k) noexcept;

/// Parse a comma-separated kind list ("dropout,wraparound", "all").
/// Throws ContractError on an empty list or an unknown kind name.
[[nodiscard]] std::uint8_t parse_fault_kinds(const std::string& list);
[[nodiscard]] std::string fault_kinds_to_string(std::uint8_t kinds);

/// Configuration of the injection layer. Part of CampaignConfig, so every
/// field participates in config_fingerprint(): clean and faulted caches
/// can never collide.
struct FaultSpec {
  /// Base probability of each fault event (per step for Dropout/Corrupt/
  /// Wraparound, per run for Truncate/MissingProfile). 0 disables.
  double rate = 0.0;
  /// Fault stream seed, hashed with the campaign seed and the per-run
  /// substream index; two campaigns differing only here get different
  /// fault placements on identical underlying data.
  std::uint64_t seed = 0xfa17;
  /// Bitwise-or of FaultKind values to enable.
  std::uint8_t kinds = kAllFaultKinds;
  /// Magnitude of injected spike garbage (well above any real counter).
  double spike_magnitude = 1e17;
  /// Truncation keeps at least this fraction of a run's steps.
  double truncate_min_keep = 0.5;

  [[nodiscard]] bool enabled() const noexcept { return rate > 0.0 && kinds != 0; }
  [[nodiscard]] bool has(FaultKind k) const noexcept {
    return (kinds & std::uint8_t(k)) != 0;
  }

  /// DFV_CHECK: rate in [0,1], kinds within the known set, positive spike
  /// magnitude, truncate_min_keep in (0,1].
  void validate() const;
};

// ---------------------------------------------------------------------------
// Degraded-data policy threaded through the pipeline.
// ---------------------------------------------------------------------------

/// What to do with degraded telemetry:
///  Strict — refuse: throw ContractError on any anomaly (clean data passes).
///  Repair — unwind wraparound exactly, impute dropped/corrupt cells by
///           linear interpolation over usable neighbor steps, drop only
///           runs beyond repair (truncated or mostly damaged).
///  Drop   — excise: flag every anomalous step unusable (consumers skip
///           it), drop truncated and mostly-damaged runs. No imputation.
///  Keep   — parse/flag nothing; raw pass-through (reloads verbatim).
enum class RepairPolicy : int { Strict = 0, Repair, Drop, Keep };

[[nodiscard]] const char* to_string(RepairPolicy p) noexcept;
/// Parse "strict" | "repair" | "drop" | "keep"; throws ContractError.
[[nodiscard]] RepairPolicy parse_repair_policy(const std::string& name);

}  // namespace dfv::faults
