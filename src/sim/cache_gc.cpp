#include "sim/cache_gc.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/check.hpp"
#include "common/log.hpp"

namespace dfv::sim {

namespace fs = std::filesystem;

namespace {

/// The file whose presence commits the entry and whose mtime is recency.
[[nodiscard]] fs::path commit_point(const fs::path& entry) {
  if (fs::exists(entry / "META")) return entry / "META";
  return entry;
}

[[nodiscard]] std::string classify(const fs::path& entry) {
  std::error_code ec;
  if (!fs::exists(entry / "META", ec)) return "other";
  // A campaign store keeps one `<label>.col` file per dataset beside its
  // META (older builds: one column directory per dataset). A META beside
  // other flat files only is a CSV entry left by an older build.
  for (const auto& sub : fs::directory_iterator(entry, ec))
    if (sub.is_directory(ec) || sub.path().extension() == ".col") return "campaign-store";
  return "other";
}

[[nodiscard]] std::uintmax_t tree_bytes(const fs::path& entry) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(entry, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      const std::uintmax_t sz = it->file_size(ec);
      if (!ec) total += sz;
    }
  }
  return total;
}

}  // namespace

std::vector<CacheEntryInfo> list_cache_entries(const std::string& cache_dir) {
  DFV_CHECK_MSG(!cache_dir.empty(), "cache dir must not be empty");
  std::vector<CacheEntryInfo> entries;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(cache_dir, ec)) {
    if (!item.is_directory(ec)) continue;
    CacheEntryInfo info;
    info.name = item.path().filename().string();
    info.kind = classify(item.path());
    info.bytes = tree_bytes(item.path());
    info.mtime = fs::last_write_time(commit_point(item.path()), ec);
    entries.push_back(std::move(info));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CacheEntryInfo& a, const CacheEntryInfo& b) { return a.name < b.name; });
  return entries;
}

void touch_cache_entry(const std::string& entry_dir) {
  DFV_CHECK_MSG(!entry_dir.empty(), "cache entry dir must not be empty");
  std::error_code ec;
  const fs::path p = commit_point(entry_dir);
  if (fs::exists(p, ec))
    fs::last_write_time(p, fs::file_time_type::clock::now(), ec);
}

std::vector<std::string> evict_cache_lru(const std::string& cache_dir,
                                         std::uintmax_t max_bytes) {
  DFV_CHECK_MSG(!cache_dir.empty(), "cache dir must not be empty");
  std::vector<CacheEntryInfo> entries = list_cache_entries(cache_dir);
  std::uintmax_t total = 0;
  for (const CacheEntryInfo& e : entries) total += e.bytes;

  // Oldest commit point first; name breaks ties so eviction order is
  // reproducible when mtimes collide (coarse filesystem clocks).
  std::sort(entries.begin(), entries.end(),
            [](const CacheEntryInfo& a, const CacheEntryInfo& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.name < b.name;
            });

  std::vector<std::string> evicted;
  for (const CacheEntryInfo& e : entries) {
    if (total <= max_bytes) break;
    std::error_code ec;
    fs::remove_all(fs::path(cache_dir) / e.name, ec);
    if (ec) {
      DFV_LOG_WARN("cache: failed to evict " << e.name << ": " << ec.message());
      continue;
    }
    total -= e.bytes;
    evicted.push_back(e.name);
  }
  return evicted;
}

std::uintmax_t parse_cache_budget(std::string_view text) {
  const char* first = text.data();
  const char* last = first + text.size();
  // Plain integers parse exactly; anything else ("5e9", "1.5") as a double.
  std::uintmax_t whole = 0;
  if (const auto r = std::from_chars(first, last, whole); r.ec == std::errc() && r.ptr == last)
    return whole;
  double v = 0.0;
  const auto r = std::from_chars(first, last, v);
  DFV_CHECK_MSG(r.ec == std::errc() && r.ptr == last,
                "cache budget '" << text << "' is not a byte count");
  DFV_CHECK_MSG(!std::signbit(v) && v < 0x1p64,
                "cache budget '" << text << "' is outside [0, 2^64) bytes");
  return std::uintmax_t(v);
}

void enforce_cache_budget_from_env(const std::string& cache_dir) {
  DFV_CHECK_MSG(!cache_dir.empty(), "cache dir must not be empty");
  const char* env = std::getenv("DFV_CACHE_MAX_BYTES");
  if (env == nullptr || *env == '\0') return;
  std::uintmax_t budget = 0;
  try {
    budget = parse_cache_budget(env);
  } catch (const ContractError& e) {
    DFV_LOG_WARN("cache: ignoring DFV_CACHE_MAX_BYTES (" << e.what() << ")");
    return;
  }
  if (budget == 0) return;
  const std::vector<std::string> evicted = evict_cache_lru(cache_dir, budget);
  if (!evicted.empty())
    DFV_LOG_INFO("cache: budget " << budget << " bytes, evicted " << evicted.size()
                                  << " entries");
}

}  // namespace dfv::sim
