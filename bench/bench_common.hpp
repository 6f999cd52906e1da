// Shared infrastructure for the experiment harnesses: the canonical
// campaign configuration (Cori-scale, Dec-Apr, 1-2 jobs/day/dataset) and
// a cached accessor so the six datasets are generated once and shared by
// every bench binary through an on-disk cache.
#pragma once

#include <chrono>
#include <string>

#include "sim/campaign.hpp"

namespace dfv::bench {

/// The campaign configuration every bench binary uses. ~190 runs per
/// dataset on the 34-group Cori topology.
[[nodiscard]] sim::CampaignConfig paper_campaign_config();

/// Directory for the shared dataset cache (DFV_CACHE_DIR env overrides
/// the build-tree default).
[[nodiscard]] std::string cache_dir();

/// The canonical campaign, generated on first use and loaded from the
/// shared cache after that. Also quiets logging and sizes the pool.
[[nodiscard]] sim::CampaignResult load_campaign();

/// Print the standard bench header (experiment id + paper reference).
void print_header(const std::string& experiment, const std::string& description);

/// Figures 4-5 panel: compute vs. MPI split (best/average/worst run) and
/// the per-routine MPI breakdown of one dataset.
void print_mpi_breakdown(const sim::Dataset& ds);

/// Scope guard that prints "[phase] wall-clock X s on N threads" to
/// stderr on destruction, so each bench phase reports the speedup the
/// dfv::exec pool delivered. Usage:
///   { PhaseTimer t("campaign"); const auto campaign = load_campaign(); ... }
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string phase);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::string phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dfv::bench
