// The campaign cache entry: faulted campaigns round-trip verbatim, the
// entry is META plus one column file per dataset, the entry and column
// bytes are pinned, and every kind of damage (a flipped column or META
// byte, a short dataset file, an older META version, a bad integer cell,
// an interrupted publish, an unwritable cache path) ends in the same
// campaign regenerated; column verification is thread-count invariant
// and names the first damaged column; then cache GC.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/integrity.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"
#include "sim/cache_gc.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_store.hpp"
#include "sim/record_fields.hpp"
#include "scratch_dir.hpp"

namespace dfv {
namespace {

namespace fs = std::filesystem;
using testutil::scratch;

const auto* const kScratch = ::testing::AddGlobalTestEnvironment(new testutil::ScratchRoot);

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spill(const fs::path& p, const std::string& bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
}

/// Bit-exact double comparison (NaN payloads included): the store
/// round-trip contract is byte fidelity, not numeric closeness.
bool bit_eq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The entry's META text without its checksum footer.
std::string read_meta(const fs::path& entry) {
  std::string text = slurp(entry / "META");
  EXPECT_EQ(verify_and_strip_checksum(text), ChecksumStatus::Ok);
  return text;
}

/// Sign `text` with a fresh footer and publish it as the entry's META.
void write_meta(const fs::path& entry, std::string text) {
  append_checksum_footer(text);
  ASSERT_TRUE(atomic_write_file((entry / "META").string(), text));
}

/// Where one column's bytes sit: a slice of its dataset's file.
struct ColumnSlice {
  fs::path file;  ///< <entry>/<label>.col
  std::size_t offset = 0, size = 0;
};

/// Every column of an entry by its name `<label>/<sub>/<name>.col`, found
/// from META alone: each column is rows(sub) × elem bytes (u8 for the
/// one-byte field types, f64 for the rest), back to back in META order.
std::map<std::string, ColumnSlice> column_slices(const fs::path& entry) {
  std::vector<std::size_t> elem;
  sim::record::fields([&](const auto& field) {
    using F = std::remove_cvref_t<decltype(field)>;
    if constexpr (F::in_store) elem.push_back(sizeof(typename F::Type) == 1 ? 1 : sizeof(double));
  });
  std::map<std::string, ColumnSlice> slices;
  std::map<std::string, std::size_t> rows;
  std::istringstream in(read_meta(entry));
  std::string line, label;
  std::size_t offset = 0, j = 0;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string kw, a, b;
    words >> kw >> a >> b;
    if (kw == "dataset") {
      label = a + "-" + b;
      words >> rows["runs"] >> rows["steps"] >> rows["neigh"];
      offset = j = 0;
    } else if (kw == "column") {
      const std::size_t size = rows.at(a.substr(0, a.find('/'))) * elem.at(j++);
      slices[label + "/" + a + ".col"] = {entry / (label + ".col"), offset, size};
      offset += size;
    }
  }
  return slices;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::Warn); }
};

// ---------------------------------------------------------------------------
// Campaign store: faulted campaigns round-trip verbatim; corrupt entries
// are evicted and regenerated
// ---------------------------------------------------------------------------

sim::CampaignConfig tiny_config(std::uint64_t seed = 42, double fault_rate = 0.1) {
  sim::CampaignConfig cfg = sim::CampaignConfig::small(seed);
  cfg.days = 3;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
  cfg.faults.rate = fault_rate;
  return cfg;
}

void expect_dataset_eq(const sim::Dataset& a, const sim::Dataset& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.spec.app, b.spec.app);
  EXPECT_EQ(a.spec.nodes, b.spec.nodes);
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    const sim::RunRecord& x = a.runs[r];
    const sim::RunRecord& y = b.runs[r];
    EXPECT_EQ(x.job_id, y.job_id);
    EXPECT_TRUE(bit_eq(x.submit_time_s, y.submit_time_s));
    EXPECT_TRUE(bit_eq(x.start_time_s, y.start_time_s));
    EXPECT_TRUE(bit_eq(x.end_time_s, y.end_time_s));
    EXPECT_EQ(x.num_routers, y.num_routers);
    EXPECT_EQ(x.num_groups, y.num_groups);
    EXPECT_EQ(x.profile_missing, y.profile_missing);
    EXPECT_TRUE(bit_eq(x.profile.compute_s, y.profile.compute_s));
    for (std::size_t k = 0; k < x.profile.routine_s.size(); ++k)
      EXPECT_TRUE(bit_eq(x.profile.routine_s[k], y.profile.routine_s[k]));
    EXPECT_EQ(x.neighborhood_users, y.neighborhood_users);
    // The empty-vs-explicit quality distinction must survive the round
    // trip (empty means "predates fault tracking", not "all ok").
    EXPECT_EQ(x.step_quality, y.step_quality);
    ASSERT_EQ(x.step_times.size(), y.step_times.size());
    for (std::size_t t = 0; t < x.step_times.size(); ++t) {
      ASSERT_TRUE(bit_eq(x.step_times[t], y.step_times[t])) << "run " << r;
      for (std::size_t k = 0; k < x.step_counters[t].size(); ++k)
        ASSERT_TRUE(bit_eq(x.step_counters[t][k], y.step_counters[t][k]));
      for (std::size_t k = 0; k < x.step_ldms[t].io.size(); ++k)
        ASSERT_TRUE(bit_eq(x.step_ldms[t].io[k], y.step_ldms[t].io[k]));
      for (std::size_t k = 0; k < x.step_ldms[t].sys.size(); ++k)
        ASSERT_TRUE(bit_eq(x.step_ldms[t].sys[k], y.step_ldms[t].sys[k]));
    }
  }
}

TEST_F(StoreTest, FaultedCampaignRoundTripsVerbatim) {
  const sim::CampaignConfig cfg = tiny_config();
  const sim::CampaignResult original = sim::run_campaign(cfg);
  const std::string dir = scratch("campaign_store_rt");
  ASSERT_TRUE(sim::save_campaign_store(original, dir));
  ASSERT_TRUE(sim::campaign_store_exists(dir));

  const sim::CampaignStorePin pin = sim::CampaignStorePin::open(dir);
  ASSERT_EQ(pin.num_datasets(), original.datasets.size());
  const sim::CampaignResult loaded = pin.load_all();
  for (std::size_t i = 0; i < original.datasets.size(); ++i)
    expect_dataset_eq(original.datasets[i], loaded.datasets[i]);
}

// A published entry is its META plus one file per dataset, holding that
// dataset's columns back to back and nothing else.
TEST_F(StoreTest, EntryIsMetaPlusOneFilePerDataset) {
  const sim::CampaignResult original = sim::run_campaign(tiny_config());
  const std::string dir = scratch("campaign_store_layout");
  ASSERT_TRUE(sim::save_campaign_store(original, dir));

  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_TRUE(e.is_regular_file()) << e.path();
    names.push_back(e.path().filename().string());
  }
  std::ranges::sort(names);
  EXPECT_EQ(names, (std::vector<std::string>{"META", "MILC-128.col", "UMT-128.col"}));

  std::map<fs::path, std::size_t> end;
  for (const auto& [name, col] : column_slices(dir))
    end[col.file] = std::max(end[col.file], col.offset + col.size);
  ASSERT_EQ(end.size(), original.datasets.size());
  for (const auto& [file, bytes] : end) EXPECT_EQ(fs::file_size(file), bytes) << file;
}

// A dataset file cut inside its last column is shorter than META says:
// the open throws before any column is read.
TEST_F(StoreTest, DatasetFileCutInsideItsLastColumnThrowsOnOpen) {
  const sim::CampaignResult original = sim::run_campaign(tiny_config());
  const std::string dir = scratch("campaign_store_cut");
  ASSERT_TRUE(sim::save_campaign_store(original, dir));
  ColumnSlice last;
  for (const auto& [name, col] : column_slices(dir))
    if (col.file.filename() == "UMT-128.col" && col.size > 0 && col.offset >= last.offset)
      last = col;
  ASSERT_GT(last.size, 1u);
  ASSERT_EQ(fs::file_size(last.file), last.offset + last.size);
  fs::resize_file(last.file, last.offset + last.size / 2);
  EXPECT_THROW((void)sim::CampaignStorePin::open(dir), ContractError);
}

// Two datasets with one label would write one file: the publish fails
// and commits nothing, instead of interleaving their columns.
TEST_F(StoreTest, DuplicateDatasetLabelIsNotPublished) {
  sim::CampaignResult twice = sim::run_campaign(tiny_config());
  twice.datasets[1] = twice.datasets[0];
  const std::string dir = scratch("campaign_store_duplicate");
  EXPECT_FALSE(sim::save_campaign_store(twice, dir));
  EXPECT_FALSE(sim::campaign_store_exists(dir));
}

// Both persisted formats of a run record pinned byte for byte: one small
// faulted campaign (NaN cells, quality bits and lost profiles all
// present), hashed once as a campaign-store entry (every file's relative
// path and bytes, in sorted path order) and once as the CSV export of
// each dataset. A layout change to either format moves its digest.
class RecordFormatGolden : public StoreTest {
 protected:
  static const sim::CampaignResult& campaign() {
    static const sim::CampaignResult c = [] {
      sim::CampaignResult r = sim::run_campaign(tiny_config());
      // One all-ok run of each dataset loses its quality vector, so the
      // "predates fault tracking" encoding is pinned too.
      for (sim::Dataset& ds : r.datasets)
        for (sim::RunRecord& run : ds.runs)
          if (std::ranges::all_of(run.step_quality,
                                  [](std::uint8_t q) { return q == faults::kQualityOk; })) {
            run.step_quality.clear();
            break;
          }
      bool nan = false, bad_step = false, lost_profile = false, untracked = false;
      for (const sim::Dataset& ds : r.datasets)
        for (const sim::RunRecord& run : ds.runs) {
          lost_profile |= run.profile_missing;
          untracked |= run.step_quality.empty();
          for (std::uint8_t q : run.step_quality) bad_step |= q != faults::kQualityOk;
          for (const auto& ctr : run.step_counters)
            for (double v : ctr) nan |= std::isnan(v);
        }
      EXPECT_TRUE(nan && bad_step && lost_profile && untracked)
          << "fixture lost its degraded cells";
      return r;
    }();
    return c;
  }
};

TEST_F(RecordFormatGolden, CampaignStoreEntryDigest) {
  const std::string dir = scratch("campaign_store_golden");
  ASSERT_TRUE(sim::save_campaign_store(campaign(), dir));
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) files[fs::relative(e.path(), dir).generic_string()] = slurp(e.path());
  ASSERT_FALSE(files.empty());
  std::uint64_t h = kFnvBasis;
  for (const auto& [path, bytes] : files) {
    h = fnv1a64_update(h, path.data(), path.size() + 1);  // NUL-terminated name
    h = fnv1a64_update(h, bytes.data(), bytes.size());
  }
  EXPECT_EQ(h, 0xb65cb3c02e2a8631ull) << std::hex << h;
}

// The raw column bytes alone: every column of the entry (its name + NUL +
// bytes, sorted by name). The commit-point text around them may
// change format; the columns must not.
TEST_F(RecordFormatGolden, CampaignStoreColumnDigest) {
  const std::string dir = scratch("campaign_store_column_golden");
  ASSERT_TRUE(sim::save_campaign_store(campaign(), dir));
  // Each column's slice of its dataset file, named by the path the column
  // had as a file of its own (`<label>/<sub>/<name>.col`), so the digest
  // holds exactly when the column bytes do.
  std::map<std::string, std::string> files;
  for (const auto& [name, col] : column_slices(dir))
    files[name] = slurp(col.file).substr(col.offset, col.size);
  ASSERT_FALSE(files.empty());
  std::uint64_t h = kFnvBasis;
  for (const auto& [path, bytes] : files) {
    h = fnv1a64_update(h, path.data(), path.size() + 1);  // NUL-terminated name
    h = fnv1a64_update(h, bytes.data(), bytes.size());
  }
  EXPECT_EQ(h, 0xa054c40ee7d1bc22ull) << std::hex << h;
}

TEST_F(RecordFormatGolden, CsvExportDigest) {
  std::uint64_t h = kFnvBasis;
  for (const sim::Dataset& ds : campaign().datasets) {
    const std::string text = sim::dataset_to_csv(ds);
    h = fnv1a64_update(h, text.data(), text.size());
  }
  EXPECT_EQ(h, 0xcdbb5cc768736337ull) << std::hex << h;
}

TEST_F(StoreTest, CampaignStoreBytesAreThreadCountInvariant) {
  const sim::CampaignResult campaign = sim::run_campaign(tiny_config(45));
  const std::string one = scratch("campaign_store_t1");
  const std::string eight = scratch("campaign_store_t8");
  exec::ThreadPool::instance().resize(1);
  ASSERT_TRUE(sim::save_campaign_store(campaign, one));
  exec::ThreadPool::instance().resize(8);
  ASSERT_TRUE(sim::save_campaign_store(campaign, eight));
  exec::ThreadPool::instance().resize(exec::resolve_threads());

  // Datasets publish in parallel; every file must still come out the same.
  const auto slurp_tree = [](const std::string& root) {
    std::map<std::string, std::string> files;
    for (const auto& e : fs::recursive_directory_iterator(root))
      if (e.is_regular_file()) files[fs::relative(e.path(), root).string()] = slurp(e.path());
    return files;
  };
  const auto t1 = slurp_tree(one);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, slurp_tree(eight));
}

TEST_F(StoreTest, CachedStoreFormatLoadsAndEvictsCorruptEntries) {
  const sim::CampaignConfig cfg = tiny_config(43);
  const std::string cache = scratch("campaign_store_cache");

  const sim::CampaignResult first = sim::run_campaign_cached(cfg, cache);
  // Exactly one entry: the store directory.
  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, "campaign-store");

  // The second call loads the committed entry.
  const sim::CampaignResult second = sim::run_campaign_cached(cfg, cache);
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], second.datasets[i]);

  // Flip one byte of one column: the load detects the CRC mismatch,
  // evicts the entry, and regenerates the identical campaign.
  const ColumnSlice col =
      column_slices(fs::path(cache) / entries[0].name).at("MILC-128/steps/step_time.col");
  ASSERT_GT(col.size, 9u);
  {
    std::fstream f(col.file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(std::streamoff(col.offset + 8));
    f.put('\x7f');
  }
  const sim::CampaignResult third = sim::run_campaign_cached(cfg, cache);
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], third.datasets[i]);
  // The republished entry verifies clean again and left no temp files.
  EXPECT_NO_THROW((void)sim::CampaignStorePin::open(
                      (fs::path(cache) / entries[0].name).string())
                      .load_all());
  for (const auto& e : fs::recursive_directory_iterator(cache))
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
}

/// The entry's META text with the CRC of each column named in `crcs` (by
/// `<label>/<sub>/<name>.col`, as column_slices names it) replaced.
std::string meta_with_crcs(const fs::path& entry, const std::map<std::string, std::uint64_t>& crcs) {
  std::istringstream in(read_meta(entry));
  std::string meta, line, dataset;
  std::size_t resigned = 0;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string kw, a, b;
    words >> kw >> a >> b;
    if (kw == "dataset") dataset = a + "-" + b;
    const auto crc = crcs.find(dataset + "/" + a + ".col");
    if (kw == "column" && crc != crcs.end()) {
      char hex[20];
      std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(crc->second));
      line = kw + ' ' + a + ' ' + hex;
      ++resigned;
    }
    meta += line + '\n';
  }
  EXPECT_EQ(resigned, crcs.size());
  return meta;
}

/// Set row `row` of the F64 runs column `name` of dataset `label` to `v`
/// in the dataset file and re-sign META with the column's fresh CRC: a
/// well-formed entry holding a bad value.
void rewrite_f64_cell(const fs::path& entry, const std::string& label, const std::string& name,
                      std::size_t row, double v) {
  const std::string key = label + "/runs/" + name + ".col";
  const ColumnSlice col = column_slices(entry).at(key);
  ASSERT_GE(col.size, (row + 1) * sizeof(double));
  std::string bytes = slurp(col.file);
  ASSERT_GE(bytes.size(), col.offset + col.size);
  std::memcpy(bytes.data() + col.offset + row * sizeof(double), &v, sizeof v);
  spill(col.file, bytes);
  write_meta(entry, meta_with_crcs(entry, {{key, xxh64(bytes.data() + col.offset, col.size)}}));
}

TEST_F(StoreTest, BadIntegerCellsAreCorruptEntries) {
  const sim::CampaignConfig cfg = tiny_config(48);
  const std::string cache = scratch("campaign_store_bad_ints");
  const sim::CampaignResult first = sim::run_campaign_cached(cfg, cache);
  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 1u);
  const fs::path entry = fs::path(cache) / entries[0].name;

  // Each bad value on its own is rejected at load with a ContractError...
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [column, v] : std::vector<std::pair<std::string, double>>{
           {"steps", -1.0}, {"steps", nan}, {"steps", 2.5}, {"steps", 1e300},
           {"neigh_count", -1.0}, {"job_id", 4294967297.0}, {"num_groups", nan}}) {
    const fs::path col = entry / "MILC-128.col";
    const std::string col_bytes = slurp(col), meta = slurp(entry / "META");
    rewrite_f64_cell(entry, "MILC-128", column, 0, v);
    EXPECT_THROW((void)sim::CampaignStorePin::open(entry.string()).load_all(), ContractError)
        << column << " = " << v;
    spill(col, col_bytes);
    spill(entry / "META", meta);
    EXPECT_NO_THROW((void)sim::CampaignStorePin::open(entry.string()).load_all());
  }
  // ...which the cache treats as a corrupt entry: evict and regenerate.
  rewrite_f64_cell(entry, "MILC-128", "steps", 0, -1.0);
  const sim::CampaignResult second = sim::run_campaign_cached(cfg, cache);
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], second.datasets[i]);
  EXPECT_NO_THROW((void)sim::CampaignStorePin::open(entry.string()).load_all());
}

// Damage the entry's commit point or a dataset file's length: the open
// throws, and the cache evicts the entry and regenerates the identical
// campaign.
TEST_F(StoreTest, DamagedEntryIsEvictedAndRegenerated) {
  sim::CampaignConfig cfg = sim::CampaignConfig::small(46);
  cfg.days = 1;
  const std::string cache = scratch("campaign_store_damaged");
  const sim::CampaignResult first = sim::run_campaign_cached(cfg, cache);
  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 1u);
  const fs::path entry = fs::path(cache) / entries[0].name;
  ASSERT_GT(fs::file_size(entry / "MILC-128.col"), 0u);
  const std::string clean_meta = slurp(entry / "META");

  const std::vector<std::pair<std::string, void (*)(const fs::path&)>> damages = {
      // An entry written by the previous build, byte for byte: a
      // well-signed version-3 META whose column CRCs are byte-serial FNV-1a.
      {"META version 3",
       [](const fs::path& e) {
         std::map<std::string, std::uint64_t> fnv;
         for (const auto& [name, col] : column_slices(e))
           fnv[name] = fnv1a64(slurp(col.file).substr(col.offset, col.size));
         std::string text = meta_with_crcs(e, fnv);
         const std::string v4 = "dfv-campaign-store 4\n";
         ASSERT_EQ(text.rfind(v4, 0), 0u);
         write_meta(e, "dfv-campaign-store 3\n" + text.substr(v4.size()));
       }},
      // A dataset file one byte shorter than its columns.
      {"short column",
       [](const fs::path& e) {
         const fs::path file = e / "MILC-128.col";
         fs::resize_file(file, fs::file_size(file) - 1);
       }},
      // A dataset file cut to nothing.
      {"empty dataset file", [](const fs::path& e) { fs::resize_file(e / "UMT-128.col", 0); }},
      // A META cut in half: its checksum footer is gone.
      {"half a META",
       [](const fs::path& e) {
         const std::string text = slurp(e / "META");
         spill(e / "META", text.substr(0, text.size() / 2));
       }},
      // One flipped byte of META: its checksum footer no longer matches.
      {"flipped META byte",
       [](const fs::path& e) {
         std::string text = slurp(e / "META");
         text[text.size() / 2] ^= 0x01;
         spill(e / "META", text);
       }},
  };
  for (const auto& [what, damage] : damages) {
    damage(entry);
    EXPECT_THROW((void)sim::CampaignStorePin::open(entry.string()), ContractError) << what;
    const sim::CampaignResult again = sim::run_campaign_cached(cfg, cache);
    ASSERT_EQ(again.datasets.size(), first.datasets.size()) << what;
    for (std::size_t i = 0; i < first.datasets.size(); ++i)
      expect_dataset_eq(first.datasets[i], again.datasets[i]);
    // The regenerated entry is the clean one, byte for byte.
    EXPECT_EQ(slurp(entry / "META"), clean_meta) << what;
  }
}

// A cache path that cannot be created (it runs through a regular file)
// still yields the campaign: the publish fails, is logged, and leaves no
// entry behind.
TEST_F(StoreTest, UnwritableCachePathReturnsTheCampaign) {
  sim::CampaignConfig cfg = sim::CampaignConfig::small(49);
  cfg.days = 1;
  const fs::path root = scratch("campaign_store_unwritable");
  fs::create_directories(root);
  const fs::path file = root / "plain_file";
  spill(file, "not a directory");
  const std::string cache = (file / "sub").string();

  sim::CampaignResult cached;
  ASSERT_NO_THROW(cached = sim::run_campaign_cached(cfg, cache));
  const sim::CampaignResult direct = sim::run_campaign(cfg);
  ASSERT_EQ(cached.datasets.size(), direct.datasets.size());
  for (std::size_t i = 0; i < direct.datasets.size(); ++i)
    expect_dataset_eq(direct.datasets[i], cached.datasets[i]);
  EXPECT_EQ(slurp(file), "not a directory");
  std::vector<fs::path> left;
  for (const auto& e : fs::recursive_directory_iterator(root)) left.push_back(e.path());
  EXPECT_EQ(left, std::vector<fs::path>{file});
}

TEST_F(StoreTest, InterruptedPublishIsClearedAndRecommitted) {
  sim::CampaignConfig cfg = sim::CampaignConfig::small(44);
  cfg.days = 1;
  const std::string cache = scratch("campaign_store_interrupted");

  const sim::CampaignResult first = sim::run_campaign_cached(cfg, cache);
  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 1u);
  const fs::path entry = fs::path(cache) / entries[0].name;
  ASSERT_TRUE(sim::campaign_store_exists(entry.string()));

  // A writer that died after the column files but before META: the entry
  // reads as absent, so the next call regenerates and must commit again.
  fs::remove(entry / "META");
  ASSERT_FALSE(sim::campaign_store_exists(entry.string()));
  const sim::CampaignResult second = sim::run_campaign_cached(cfg, cache);
  ASSERT_TRUE(sim::campaign_store_exists(entry.string()));
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], second.datasets[i]);

  // The third call loads the entry instead of regenerating it: no file
  // of the entry is rewritten.
  const fs::path col = entry / "MILC-128.col";
  const auto old_time = fs::last_write_time(col) - std::chrono::hours(1);
  fs::last_write_time(col, old_time);
  const sim::CampaignResult third = sim::run_campaign_cached(cfg, cache);
  EXPECT_EQ(fs::last_write_time(col), old_time);
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], third.datasets[i]);
}

// ---------------------------------------------------------------------------
// Column verification: one pool region over every column of the entry
// ---------------------------------------------------------------------------

/// tiny_config over all four datasets of the small machine.
sim::CampaignConfig four_dataset_config(std::uint64_t seed) {
  sim::CampaignConfig cfg = tiny_config(seed);
  cfg.datasets = sim::CampaignConfig::small(seed).datasets;
  return cfg;
}

/// `c` with every dataset's runs repeated 8 times: an entry of several
/// hundred KiB, so its columns verify in many tasks of at least 64 KiB,
/// without simulating weeks.
sim::CampaignResult bulky(sim::CampaignResult c) {
  for (sim::Dataset& ds : c.datasets) {
    const std::vector<sim::RunRecord> runs = ds.runs;
    for (int k = 1; k < 8; ++k) ds.runs.insert(ds.runs.end(), runs.begin(), runs.end());
  }
  return c;
}

/// The bytes of every file under `dir`.
std::uintmax_t entry_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) bytes += fs::file_size(e.path());
  return bytes;
}

/// What the load's error says of the column `<label>/<sub>/<name>.col`.
std::string crc_mismatch(const std::string& column) {
  return "CRC mismatch in " + column.substr(0, column.size() - 4) + " of";
}

/// The message of the ContractError `f` throws ("" when it throws none).
template <class F>
std::string contract_message(F&& f) {
  try {
    f();
  } catch (const ContractError& e) {
    return e.what();
  }
  return "";
}

TEST_F(StoreTest, LoadAllIsThreadCountInvariantAndMatchesLoadDataset) {
  const sim::CampaignResult original = bulky(sim::run_campaign(four_dataset_config(50)));
  const std::string dir = scratch("campaign_store_load_threads");
  ASSERT_TRUE(sim::save_campaign_store(original, dir));
  ASSERT_GT(entry_bytes(dir), 8u * (64u << 10));

  const sim::CampaignStorePin pin = sim::CampaignStorePin::open(dir);
  ASSERT_EQ(pin.num_datasets(), 4u);
  (void)exec::configure_threads(1);
  const sim::CampaignResult one = pin.load_all();
  (void)exec::configure_threads(8);
  const sim::CampaignResult eight = pin.load_all();
  std::vector<sim::Dataset> each;
  for (std::size_t i = 0; i < pin.num_datasets(); ++i) each.push_back(pin.load_dataset(i));
  (void)exec::configure_threads();

  ASSERT_EQ(one.datasets.size(), original.datasets.size());
  ASSERT_EQ(eight.datasets.size(), original.datasets.size());
  for (std::size_t i = 0; i < original.datasets.size(); ++i) {
    expect_dataset_eq(original.datasets[i], one.datasets[i]);
    expect_dataset_eq(one.datasets[i], eight.datasets[i]);
    expect_dataset_eq(one.datasets[i], each[i]);
  }
}

// Two damaged columns, a late one of the 1st dataset and an early one of
// the 3rd: at any lane count the error names the 1st dataset's column,
// the first in (dataset, column) order, and the cache evicts the entry
// and regenerates the campaign.
TEST_F(StoreTest, FirstDamagedColumnIsNamedAtAnyThreadCount) {
  const sim::CampaignConfig cfg = four_dataset_config(51);
  const std::string cache = scratch("campaign_store_first_damage");
  const sim::CampaignResult first = sim::run_campaign_cached(cfg, cache);
  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 1u);
  const fs::path entry = fs::path(cache) / entries[0].name;
  // Republish the entry bulky, so the two damaged columns sit in
  // different verification tasks.
  fs::remove_all(entry);
  ASSERT_TRUE(sim::save_campaign_store(bulky(first), entry.string()));
  ASSERT_GT(entry_bytes(entry), 8u * (64u << 10));

  const std::string first_label = cfg.datasets[0].label(), third_label = cfg.datasets[2].label();
  std::string late, early;  // the 1st dataset's last column, the 3rd's first (non-empty)
  std::size_t late_offset = 0, early_offset = std::numeric_limits<std::size_t>::max();
  const auto slices = column_slices(entry);
  for (const auto& [name, col] : slices) {
    if (col.size == 0) continue;
    if (name.starts_with(first_label + "/") && col.offset >= late_offset) {
      late = name;
      late_offset = col.offset;
    }
    if (name.starts_with(third_label + "/") && col.offset < early_offset) {
      early = name;
      early_offset = col.offset;
    }
  }
  ASSERT_FALSE(late.empty());
  ASSERT_FALSE(early.empty());
  for (const std::string& name : {late, early}) {
    const ColumnSlice& col = slices.at(name);
    std::fstream f(col.file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(std::streamoff(col.offset));
    const char byte = char(f.get());
    f.seekp(std::streamoff(col.offset));
    f.put(char(byte ^ 0x5a));
  }

  const sim::CampaignStorePin pin = sim::CampaignStorePin::open(entry.string());
  for (const int lanes : {1, 8}) {
    (void)exec::configure_threads(lanes);
    const std::string msg = contract_message([&] { (void)pin.load_all(); });
    EXPECT_NE(msg.find(crc_mismatch(late)), std::string::npos) << lanes << " lanes: " << msg;
    // One dataset at a time verifies only its own columns.
    const std::string third = contract_message([&] { (void)pin.load_dataset(2); });
    EXPECT_NE(third.find(crc_mismatch(early)), std::string::npos) << lanes << " lanes: " << third;
    EXPECT_NO_THROW((void)pin.load_dataset(1)) << lanes << " lanes";
  }
  const sim::CampaignResult again = sim::run_campaign_cached(cfg, cache);
  (void)exec::configure_threads();
  ASSERT_EQ(again.datasets.size(), first.datasets.size());
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], again.datasets[i]);
  EXPECT_NO_THROW((void)sim::CampaignStorePin::open(entry.string()).load_all());
}

// Every dataset's columns are verified, up to its last one: damage in the
// last column of any one dataset alone fails load_all, naming it.
TEST_F(StoreTest, LastColumnOfEveryDatasetIsVerified) {
  const sim::CampaignResult original = bulky(sim::run_campaign(four_dataset_config(53)));
  const std::string dir = scratch("campaign_store_last_columns");
  ASSERT_TRUE(sim::save_campaign_store(original, dir));
  std::map<fs::path, std::pair<std::string, ColumnSlice>> last;  // per dataset file
  for (const auto& [name, col] : column_slices(dir))
    if (col.size > 0 && col.offset >= last[col.file].second.offset) last[col.file] = {name, col};
  ASSERT_EQ(last.size(), 4u);
  for (const auto& [file, named] : last) {
    const auto& [name, col] = named;
    const std::string clean = slurp(file);
    std::string bytes = clean;
    bytes[col.offset + col.size - 1] ^= 0x01;
    spill(file, bytes);
    const std::string msg =
        contract_message([&] { (void)sim::CampaignStorePin::open(dir).load_all(); });
    EXPECT_NE(msg.find(crc_mismatch(name)), std::string::npos) << name << ": " << msg;
    spill(file, clean);
  }
  EXPECT_NO_THROW((void)sim::CampaignStorePin::open(dir).load_all());
}

// ---------------------------------------------------------------------------
// Cache GC: size accounting and LRU eviction
// ---------------------------------------------------------------------------

TEST_F(StoreTest, LruEvictionRespectsBudgetAndRecency) {
  const std::string cache = scratch("cache_gc");
  fs::create_directories(cache);
  const auto now = fs::file_time_type::clock::now();
  for (int i = 0; i < 3; ++i) {
    const fs::path entry = fs::path(cache) / ("entry_" + std::to_string(i));
    fs::create_directories(entry);
    std::ofstream(entry / "payload.bin", std::ios::binary)
        << std::string(1000, char('a' + i));
    // entry_0 oldest, entry_2 newest.
    fs::last_write_time(entry, now - std::chrono::hours(3 - i));
  }

  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "entry_0");
  EXPECT_EQ(entries[0].kind, "other");
  EXPECT_EQ(entries[0].bytes, 1000u);

  // Budget for two entries: the oldest goes first.
  const auto evicted = sim::evict_cache_lru(cache, 2000);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "entry_0");
  EXPECT_FALSE(fs::exists(fs::path(cache) / "entry_0"));

  // Touching an entry protects it: entry_1 becomes the most recent, so a
  // budget of one entry evicts entry_2 instead.
  sim::touch_cache_entry((fs::path(cache) / "entry_1").string());
  const auto evicted2 = sim::evict_cache_lru(cache, 1000);
  ASSERT_EQ(evicted2.size(), 1u);
  EXPECT_EQ(evicted2[0], "entry_2");

  // A budget of zero clears the directory; an unlimited budget is a no-op.
  EXPECT_EQ(sim::evict_cache_lru(cache, 0).size(), 1u);
  EXPECT_TRUE(sim::list_cache_entries(cache).empty());
  EXPECT_TRUE(sim::evict_cache_lru(cache, 1 << 30).empty());
}

TEST_F(StoreTest, StaleCsvEntryListsAsOtherAndIsEvictable) {
  // A CSV campaign entry left by an older build: META beside flat .csv
  // files, no dataset directories. It is not a campaign store, and LRU
  // still removes it like any other entry. So is a bare column store of
  // older builds (a MANIFEST and columns, no META).
  const std::string cache = scratch("cache_stale_csv");
  const auto now = fs::file_time_type::clock::now();
  const fs::path bare = fs::path(cache) / "bare_10d6.store";
  fs::create_directories(bare);
  std::ofstream(bare / "MANIFEST") << "dfv-store 1\n";
  std::ofstream(bare / "run_time_s.col") << std::string(800, 'z');
  fs::last_write_time(bare, now - std::chrono::hours(3));
  const fs::path stale = fs::path(cache) / "campaign_0123456789abcdef";
  fs::create_directories(stale);
  std::ofstream(stale / "META") << "format=dfc0de08\ndatasets=1\n";
  std::ofstream(stale / "MILC-128.csv") << std::string(1000, 'x');
  fs::last_write_time(stale / "META", now - std::chrono::hours(2));
  const fs::path store = fs::path(cache) / "campaign_fedcba9876543210.store";
  fs::create_directories(store / "MILC-128");
  std::ofstream(store / "META") << std::string(1000, 'y');
  fs::last_write_time(store / "META", now - std::chrono::hours(1));

  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, bare.filename().string());
  EXPECT_EQ(entries[0].kind, "other");
  EXPECT_EQ(entries[1].name, stale.filename().string());
  EXPECT_EQ(entries[1].kind, "other");
  EXPECT_EQ(entries[2].kind, "campaign-store");

  const auto evicted = sim::evict_cache_lru(cache, 1000);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], bare.filename().string());
  EXPECT_EQ(evicted[1], stale.filename().string());
  EXPECT_FALSE(fs::exists(bare));
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(store));
}

TEST_F(StoreTest, CacheBudgetParsing) {
  EXPECT_EQ(sim::parse_cache_budget("0"), 0u);
  EXPECT_EQ(sim::parse_cache_budget("4096"), 4096u);
  EXPECT_EQ(sim::parse_cache_budget("5e9"), 5000000000u);
  EXPECT_EQ(sim::parse_cache_budget("2.5e3"), 2500u);
  EXPECT_EQ(sim::parse_cache_budget("1.9"), 1u);
  // Integers parse exactly up to the top of the range.
  EXPECT_EQ(sim::parse_cache_budget("18446744073709551615"), 18446744073709551615u);
  for (const char* bad : {"", " 5", "5 ", "5x", "abc", "-1", "-0", "-5e9", "+5", "nan",
                          "inf", "1e30", "18446744073709551616", "1.8446744073709552e19"})
    EXPECT_THROW((void)sim::parse_cache_budget(bad), ContractError) << "'" << bad << "'";
}

TEST_F(StoreTest, ScientificEnvBudgetKeepsFreshEntry) {
  // DFV_CACHE_MAX_BYTES=5e9 is five gigabytes, far above a tiny
  // campaign: the entry just published must stay.
  sim::CampaignConfig cfg = sim::CampaignConfig::small(47);
  cfg.days = 1;
  const std::string cache = scratch("cache_env_budget");
  ASSERT_EQ(setenv("DFV_CACHE_MAX_BYTES", "5e9", 1), 0);
  (void)sim::run_campaign_cached(cfg, cache);
  const auto kept = sim::list_cache_entries(cache);
  // A malformed budget is ignored with a warning, not read as a tiny one.
  ASSERT_EQ(setenv("DFV_CACHE_MAX_BYTES", "5e9bytes", 1), 0);
  sim::enforce_cache_budget_from_env(cache);
  const auto after_bad = sim::list_cache_entries(cache);
  unsetenv("DFV_CACHE_MAX_BYTES");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].kind, "campaign-store");
  EXPECT_EQ(after_bad.size(), 1u);
}

}  // namespace
}  // namespace dfv
