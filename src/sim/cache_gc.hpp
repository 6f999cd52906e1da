// Size accounting and LRU eviction for the on-disk cache directory.
// Entries are the direct subdirectories of the cache root (campaign-store
// entries, anything else); recency is the mtime of the entry's META
// commit point (the directory's own mtime when it has none), which load
// paths touch on every cache hit. `dfv cache` fronts this module, and
// run_campaign_cached enforces the DFV_CACHE_MAX_BYTES budget after
// each publish so the cache can no longer grow without bound.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace dfv::sim {

struct CacheEntryInfo {
  std::string name;           ///< directory name under the cache root
  std::string kind;           ///< "campaign-store" | "other"
  std::uintmax_t bytes = 0;   ///< recursive size
  std::filesystem::file_time_type mtime{};  ///< commit-point recency
};

/// All entries of `cache_dir`, sorted by name (deterministic listing).
/// A missing cache directory yields an empty list.
[[nodiscard]] std::vector<CacheEntryInfo> list_cache_entries(const std::string& cache_dir);

/// Mark an entry as recently used (bump its commit-point mtime). Load
/// paths call this on cache hits; unknown paths are ignored.
void touch_cache_entry(const std::string& entry_dir);

/// Evict least-recently-used entries until the cache fits `max_bytes`
/// (ties broken by name). Returns the evicted entry names, oldest first.
[[nodiscard]] std::vector<std::string> evict_cache_lru(const std::string& cache_dir,
                                                       std::uintmax_t max_bytes);

/// Parse a cache budget in bytes: a plain integer or a decimal double
/// such as "5e9" (a fraction is truncated). Throws ContractError on
/// malformed, negative, NaN or out-of-range (>= 2^64) input.
[[nodiscard]] std::uintmax_t parse_cache_budget(std::string_view text);

/// Apply the DFV_CACHE_MAX_BYTES env budget (unset or 0 = unlimited). A
/// value parse_cache_budget rejects logs a warning and evicts nothing.
void enforce_cache_budget_from_env(const std::string& cache_dir);

}  // namespace dfv::sim
