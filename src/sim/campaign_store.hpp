// Column-store cache format for campaigns: each dataset becomes three
// sub-stores (per-run scalars, per-step telemetry, neighborhood lists)
// under one entry directory, with a checksummed META as the commit
// point. Against the CSV blob format this opens in O(MANIFEST parse +
// mmap) instead of O(full text parse) — datasets materialize lazily,
// one at a time, straight off the mappings — and it is the substrate
// `dfv serve` uses to bring campaigns resident by mmap.
//
// Layout:
//   <dir>/META                    "dfv-campaign-store" + dataset table,
//                                 `#dfv-crc` footer, written last
//   <dir>/<label>/runs/           store::ColumnStore (job/placement/
//                                 profile scalars, one row per run)
//   <dir>/<label>/steps/          step times + 13 counters + 8 LDMS
//                                 features + quality, one row per step
//   <dir>/<label>/neigh/          flattened neighborhood user ids
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "store/column_store.hpp"

namespace dfv::sim {

/// True when `dir` holds a committed campaign-store entry (META present).
[[nodiscard]] bool campaign_store_exists(const std::string& dir);

/// Publish `result` as a campaign-store entry at `dir`: every sub-store
/// is written and published once, META strictly last. A directory at
/// `dir` without META (a publish that was interrupted) is cleared first.
/// Returns false on I/O failure (the entry is then not committed).
[[nodiscard]] bool save_campaign_store(const CampaignResult& result,
                                       const std::string& dir);

/// Cheap open handle over a committed entry: parses META and pins the
/// sub-stores (mmap; no rows are materialized). Throws ContractError on
/// any inconsistency — callers treat that as a corrupt cache entry.
class CampaignStorePin {
 public:
  [[nodiscard]] static CampaignStorePin open(const std::string& dir);

  [[nodiscard]] std::size_t num_datasets() const noexcept { return specs_.size(); }
  [[nodiscard]] const std::vector<apps::DatasetSpec>& specs() const noexcept {
    return specs_;
  }

  /// Materialize one dataset from the pinned columns (bit-exact round
  /// trip of what save_campaign_store was given, including NaNs, quality
  /// masks, and the empty-vs-all-ok quality distinction).
  [[nodiscard]] Dataset load_dataset(std::size_t i) const;

  /// Materialize everything (the run_campaign_cached load path).
  [[nodiscard]] CampaignResult load_all() const;

 private:
  struct DatasetPins {
    std::shared_ptr<const store::StorePin> runs;
    std::shared_ptr<const store::StorePin> steps;
    std::shared_ptr<const store::StorePin> neigh;
  };

  std::vector<apps::DatasetSpec> specs_;
  std::vector<DatasetPins> pins_;
};

}  // namespace dfv::sim
