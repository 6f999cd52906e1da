// The campaign cache entry, the only campaign-cache format: every dataset
// of a campaign as one raw column file in one entry directory, with one
// checksummed META as the single commit point. Opening costs O(META
// parse + one mmap per dataset); run_campaign_cached then materializes
// every dataset straight off the mappings (load_all), checking each
// column's CRC as it goes, instead of parsing text.
//
// Layout:
//   <dir>/META           "dfv-campaign-store 3", per dataset its runs/
//                        steps/neigh row counts and one FNV-1a CRC per
//                        column; `#dfv-crc` footer; written strictly last
//   <dir>/<label>.col    the dataset's columns back to back, in
//                        sim/record_fields.hpp store order; a column is
//                        rows × elem raw little-endian f64 or u8 bytes,
//                        with rows one per run (runs/ columns), per run
//                        step (steps/) or per neighborhood user (neigh/)
// A column's offset is the sum of the sizes before it, all known from
// META, so META names no offsets. Publishing costs one fdatasync per
// dataset file (the datasets write in parallel), then META. An entry is
// written once and never appended to.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "store/mmap_io.hpp"

namespace dfv::sim {

/// True when `dir` holds a committed campaign-store entry (META present).
[[nodiscard]] bool campaign_store_exists(const std::string& dir);

/// Publish `result` as a campaign-store entry at `dir`: every dataset file
/// is written and synced, META strictly last. A directory at `dir`
/// without META (a publish that was interrupted) is cleared first; a
/// committed entry is write-once and is left as it is. Returns false on
/// I/O failure or when `dir` already holds an entry (nothing is then
/// committed).
[[nodiscard]] bool save_campaign_store(const CampaignResult& result,
                                       const std::string& dir);

/// Cheap open handle over a committed entry: parses META and maps each
/// dataset file's committed prefix (no rows are materialized). Throws
/// ContractError on any inconsistency — callers treat that as a corrupt
/// cache entry. Column bytes are reachable only through load_dataset.
class CampaignStorePin {
 public:
  [[nodiscard]] static CampaignStorePin open(const std::string& dir);

  [[nodiscard]] std::size_t num_datasets() const noexcept { return datasets_.size(); }

  /// Materialize one dataset from the mapped columns (bit-exact round
  /// trip of what save_campaign_store was given, including NaNs, quality
  /// masks, and the empty-vs-all-ok quality distinction). Throws
  /// ContractError when a column's bytes do not match its META CRC.
  [[nodiscard]] Dataset load_dataset(std::size_t i) const;

  /// Materialize everything (the run_campaign_cached load path).
  [[nodiscard]] CampaignResult load_all() const;

 private:
  struct Entry {
    apps::DatasetSpec spec;
    std::array<std::uint64_t, 3> rows{};  ///< runs/, steps/, neigh/
    std::vector<std::uint64_t> crc;       ///< per column, list order
    std::vector<std::size_t> offset;      ///< per column, then the file's end
    store::MappedFile file;               ///< the columns, back to back
  };
  std::string dir_;
  std::vector<Entry> datasets_;
};

}  // namespace dfv::sim
