// The campaign cache entry, the only campaign-cache format: every dataset
// of a campaign as one raw column file in one entry directory, with one
// checksummed META as the single commit point. Opening costs O(META
// parse + one mmap per dataset); run_campaign_cached then materializes
// every dataset straight off the mappings (load_all) instead of parsing
// text: first every column's XXH64 checksum (the "CRC" of META and of
// the errors) is checked in one pool region, whole columns per task, then
// the datasets decode one after another on the calling thread.
//
// Layout:
//   <dir>/META           "dfv-campaign-store 4", per dataset its runs/
//                        steps/neigh row counts and one XXH64 CRC per
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
  /// masks, and the empty-vs-all-ok quality distinction). Every column of
  /// the dataset is checked against its META CRC before any value is
  /// decoded; a mismatch throws ContractError naming the first damaged
  /// column.
  [[nodiscard]] Dataset load_dataset(std::size_t i) const;

  /// Materialize everything (the run_campaign_cached load path): every
  /// column of every dataset is checked first, in one pool region, and a
  /// mismatch throws ContractError naming the first damaged column in
  /// (dataset, column) order, at any thread count. Decoding then runs on
  /// the calling thread.
  [[nodiscard]] CampaignResult load_all() const;

 private:
  struct Entry {
    apps::DatasetSpec spec;
    std::array<std::uint64_t, 3> rows{};  ///< runs/, steps/, neigh/
    std::vector<std::uint64_t> crc;       ///< per column, list order
    std::vector<std::size_t> offset;      ///< per column, then the file's end
    store::MappedFile file;               ///< the columns, back to back
  };
  /// Check every column of datasets [first, last) against its META CRC,
  /// all in one pool region; throws ContractError naming the first
  /// damaged column in (dataset, column) order.
  void verify(std::size_t first, std::size_t last) const;
  /// Materialize dataset i from columns verify() has passed.
  [[nodiscard]] Dataset decode(std::size_t i) const;

  std::string dir_;
  std::vector<Entry> datasets_;
};

}  // namespace dfv::sim
