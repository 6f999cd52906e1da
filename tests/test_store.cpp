// Column store: append/publish/pin round trips, zone-map statistics,
// append-batching byte invariance, torn-write and truncated-segment
// recovery, pin consistency under a concurrent writer, the campaign-store
// cache format, and cache GC.
#include "store/column_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/integrity.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "sim/cache_gc.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_store.hpp"

namespace dfv {
namespace {

namespace fs = std::filesystem;
using store::AppendChunk;
using store::ColumnKind;
using store::ColumnSpec;
using store::ColumnStore;
using store::StoreOptions;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fresh scratch directory under the test temp root.
std::string scratch(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Bit-exact double comparison (NaN payloads included): the store
/// round-trip contract is byte fidelity, not numeric closeness.
bool bit_eq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Deterministic column content keyed by absolute row index, so any
/// append batching must converge on the same bytes.
double val_a(std::uint64_t row) { return 0.25 * double(row) - 7.0; }
double val_b(std::uint64_t row) { return std::sin(double(row) * 0.1) * 100.0; }
std::uint8_t val_q(std::uint64_t row) { return std::uint8_t(row % 5); }

/// Append rows [first, first + count) of the (a, b, q) fixture schema.
void append_fixture_rows(ColumnStore& cs, std::uint64_t first, std::uint64_t count) {
  std::vector<double> a(count), b(count);
  std::vector<std::uint8_t> q(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    a[i] = val_a(first + i);
    b[i] = val_b(first + i);
    q[i] = val_q(first + i);
  }
  AppendChunk chunk;
  chunk.rows = count;
  chunk.f64 = {a, b};
  chunk.u8 = {q};
  cs.append(chunk);
}

std::vector<ColumnSpec> fixture_specs() {
  return {{"a", ColumnKind::F64}, {"b", ColumnKind::F64}, {"q", ColumnKind::U8}};
}

StoreOptions small_segments() {
  StoreOptions opt;
  opt.segment_rows = 64;  // many segments from few rows
  return opt;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::Warn); }
};

// ---------------------------------------------------------------------------
// ColumnStore: round trip, zone maps, pins
// ---------------------------------------------------------------------------

TEST_F(StoreTest, RoundTripValuesAndZoneStats) {
  const std::string dir = scratch("store_roundtrip");
  ColumnStore cs = ColumnStore::create(dir, fixture_specs(), small_segments());
  append_fixture_rows(cs, 0, 200);
  cs.publish();

  const auto pin = cs.pin();
  EXPECT_EQ(pin->rows(), 200u);
  EXPECT_EQ(pin->segment_rows(), 64u);
  const auto a = pin->f64("a");
  const auto q = pin->u8("q");
  ASSERT_EQ(a.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(bit_eq(a[i], val_a(i)));
    EXPECT_EQ(q[i], val_q(i));
  }

  // Zone maps: 200 rows at 64/segment -> 4 segments (64, 64, 64, 8).
  const auto zones = pin->zones(pin->column_index("a"));
  ASSERT_EQ(zones.size(), 4u);
  EXPECT_EQ(zones[0].count, 64u);
  EXPECT_EQ(zones[3].count, 8u);
  EXPECT_TRUE(bit_eq(zones[0].min, val_a(0)));
  EXPECT_TRUE(bit_eq(zones[0].max, val_a(63)));
  // The zone sums add up to the column sum (values are exact in binary).
  double zone_sum = 0.0, col_sum = 0.0;
  for (const auto& z : zones) zone_sum += z.sum;
  for (double v : a) col_sum += v;
  EXPECT_EQ(zone_sum, col_sum);

  EXPECT_NO_THROW(pin->verify_integrity());
  EXPECT_THROW((void)pin->f64("missing"), ContractError);
  EXPECT_THROW((void)pin->f64("q"), ContractError);  // u8 column via f64 accessor
}

TEST_F(StoreTest, NanSkipsMinMaxAndPoisonsMean) {
  const std::string dir = scratch("store_nan");
  ColumnStore cs =
      ColumnStore::create(dir, {{"v", ColumnKind::F64}}, small_segments());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v = {3.0, nan, -2.0, 8.0};
  AppendChunk chunk;
  chunk.rows = v.size();
  chunk.f64 = {v};
  cs.append(chunk);
  cs.publish();

  const auto pin = cs.pin();
  const auto z = pin->zones(0);
  ASSERT_EQ(z.size(), 1u);
  EXPECT_EQ(z[0].min, -2.0);  // fmin/fmax skip the NaN
  EXPECT_EQ(z[0].max, 8.0);
  EXPECT_TRUE(std::isnan(z[0].sum));  // sum is NaN-poisoning: honest mean
  EXPECT_TRUE(bit_eq(pin->f64("v")[1], nan));
  EXPECT_NO_THROW(pin->verify_integrity());
}

TEST_F(StoreTest, AppendBatchingIsByteAndFingerprintInvariant) {
  const std::string one = scratch("store_batch_one");
  const std::string many = scratch("store_batch_many");

  ColumnStore cs1 = ColumnStore::create(one, fixture_specs(), small_segments());
  append_fixture_rows(cs1, 0, 333);
  cs1.publish();

  // Same rows in uneven chunks with publishes interleaved.
  ColumnStore cs2 = ColumnStore::create(many, fixture_specs(), small_segments());
  append_fixture_rows(cs2, 0, 7);
  cs2.publish();
  append_fixture_rows(cs2, 7, 130);
  append_fixture_rows(cs2, 137, 63);
  cs2.publish();
  append_fixture_rows(cs2, 200, 133);
  cs2.publish();

  for (const char* col : {"a.col", "b.col", "q.col"})
    EXPECT_EQ(slurp(fs::path(one) / col), slurp(fs::path(many) / col)) << col;
  // The content fingerprint (rows, schema, every segment CRC) agrees even
  // though the epochs differ; so do all zone statistics.
  EXPECT_EQ(cs1.pin()->content_fingerprint(), cs2.pin()->content_fingerprint());
  EXPECT_NE(cs1.pin()->epoch(), cs2.pin()->epoch());
  const auto pin1 = cs1.pin();
  const auto pin2 = cs2.pin();
  const auto zb1 = pin1->zones(1);
  const auto zb2 = pin2->zones(1);
  ASSERT_EQ(zb1.size(), zb2.size());
  for (std::size_t g = 0; g < zb1.size(); ++g) {
    EXPECT_TRUE(bit_eq(zb1[g].sum, zb2[g].sum)) << "segment " << g;
    EXPECT_TRUE(bit_eq(zb1[g].min, zb2[g].min)) << "segment " << g;
    EXPECT_TRUE(bit_eq(zb1[g].max, zb2[g].max)) << "segment " << g;
  }
}

TEST_F(StoreTest, CreateWithFirstChunkPublishesOnce) {
  const std::string two_step = scratch("store_first_two_step");
  const std::string one_step = scratch("store_first_one_step");

  ColumnStore cs1 = ColumnStore::create(two_step, fixture_specs(), small_segments());
  append_fixture_rows(cs1, 0, 150);
  cs1.publish();

  std::vector<double> a(150), b(150);
  std::vector<std::uint8_t> q(150);
  for (std::uint64_t i = 0; i < 150; ++i) {
    a[i] = val_a(i);
    b[i] = val_b(i);
    q[i] = val_q(i);
  }
  AppendChunk chunk;
  chunk.rows = 150;
  chunk.f64 = {a, b};
  chunk.u8 = {q};
  ColumnStore cs2 = ColumnStore::create(one_step, fixture_specs(), small_segments(), chunk);
  EXPECT_EQ(cs2.published_rows(), 150u);

  for (const char* col : {"a.col", "b.col", "q.col"})
    EXPECT_EQ(slurp(fs::path(two_step) / col), slurp(fs::path(one_step) / col)) << col;
  EXPECT_EQ(cs1.pin()->content_fingerprint(), cs2.pin()->content_fingerprint());
  EXPECT_EQ(cs1.pin()->epoch(), 2u);
  EXPECT_EQ(cs2.pin()->epoch(), 1u);
}

TEST_F(StoreTest, PinIsPointInTimeAcrossAppends) {
  const std::string dir = scratch("store_pit");
  ColumnStore cs = ColumnStore::create(dir, fixture_specs(), small_segments());
  append_fixture_rows(cs, 0, 100);
  cs.publish();

  const auto old_pin = cs.pin();
  append_fixture_rows(cs, 100, 100);
  EXPECT_EQ(cs.rows(), 200u);
  EXPECT_EQ(cs.published_rows(), 100u);  // not yet visible
  EXPECT_EQ(cs.pin()->rows(), 100u);
  cs.publish();
  EXPECT_EQ(cs.pin()->rows(), 200u);

  // The old pin still sees exactly its committed prefix, CRC-clean.
  EXPECT_EQ(old_pin->rows(), 100u);
  EXPECT_NO_THROW(old_pin->verify_integrity());
  EXPECT_TRUE(bit_eq(old_pin->f64("a")[99], val_a(99)));
}

// ---------------------------------------------------------------------------
// Crash recovery: torn tails, truncated segments, corruption
// ---------------------------------------------------------------------------

TEST_F(StoreTest, TornTailIsTruncatedOnReopen) {
  const std::string dir = scratch("store_torn");
  {
    ColumnStore cs = ColumnStore::create(dir, fixture_specs(), small_segments());
    append_fixture_rows(cs, 0, 100);
    cs.publish();
    // A writer that dies between append and publish leaves bytes past the
    // committed extent in every column file.
    append_fixture_rows(cs, 100, 37);
    // no publish: simulate the crash by dropping the handle
  }
  ColumnStore reopened = ColumnStore::open(dir);
  EXPECT_EQ(reopened.rows(), 100u);
  EXPECT_EQ(fs::file_size(fs::path(dir) / "a.col"), 100 * sizeof(double));

  // Re-appending the same logical rows converges on the clean bytes.
  append_fixture_rows(reopened, 100, 237);
  reopened.publish();
  const std::string clean = scratch("store_torn_clean");
  ColumnStore ref = ColumnStore::create(clean, fixture_specs(), small_segments());
  append_fixture_rows(ref, 0, 337);
  ref.publish();
  EXPECT_EQ(slurp(fs::path(dir) / "a.col"), slurp(fs::path(clean) / "a.col"));
  EXPECT_EQ(reopened.pin()->content_fingerprint(), ref.pin()->content_fingerprint());
}

TEST_F(StoreTest, ColumnShorterThanCommittedExtentIsCorruption) {
  const std::string dir = scratch("store_short");
  {
    ColumnStore cs = ColumnStore::create(dir, fixture_specs(), small_segments());
    append_fixture_rows(cs, 0, 100);
    cs.publish();
  }
  fs::resize_file(fs::path(dir) / "b.col", 10 * sizeof(double));
  EXPECT_THROW((void)ColumnStore::open(dir), ContractError);
  EXPECT_THROW((void)ColumnStore::open_pin(dir), ContractError);
}

TEST_F(StoreTest, FlippedByteFailsVerifyIntegrity) {
  const std::string dir = scratch("store_flip");
  {
    ColumnStore cs = ColumnStore::create(dir, fixture_specs(), small_segments());
    append_fixture_rows(cs, 0, 150);
    cs.publish();
  }
  {
    std::fstream f(fs::path(dir) / "a.col",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(77 * std::streamoff(sizeof(double)));
    f.put('\x5a');
  }
  const auto pin = ColumnStore::open_pin(dir);  // mmap succeeds...
  EXPECT_THROW(pin->verify_integrity(), ContractError);  // ...the CRC does not

  // A damaged MANIFEST is caught by its checksum footer at open.
  std::string manifest = slurp(fs::path(dir) / "MANIFEST");
  manifest[manifest.size() / 2] ^= 0x01;
  std::ofstream(fs::path(dir) / "MANIFEST", std::ios::binary) << manifest;
  EXPECT_THROW((void)ColumnStore::open_pin(dir), ContractError);
}

// ---------------------------------------------------------------------------
// Pins: point-in-time under a concurrent writer
// ---------------------------------------------------------------------------

TEST_F(StoreTest, SnapshotUnderConcurrentAppendIsConsistent) {
  const std::string dir = scratch("store_snap_conc");
  ColumnStore cs = ColumnStore::create(dir, fixture_specs(), small_segments());

  std::thread writer([&cs] {
    std::uint64_t row = 0;
    for (int batch = 0; batch < 40; ++batch) {
      append_fixture_rows(cs, row, 137);
      row += 137;
      cs.publish();
    }
  });

  // Concurrently pin published states: every pin must be a CRC-clean
  // point-in-time prefix of the logical content.
  for (int s = 0; s < 5; ++s) {
    const auto pin = cs.pin();
    EXPECT_NO_THROW(pin->verify_integrity());
    const auto a = pin->f64("a");
    const auto q = pin->u8("q");
    for (std::uint64_t i = 0; i < pin->rows(); ++i) {
      ASSERT_TRUE(bit_eq(a[i], val_a(i))) << "row " << i << " of pin " << s;
      ASSERT_EQ(q[i], val_q(i)) << "row " << i << " of pin " << s;
    }
    EXPECT_EQ(pin->rows() % 137, 0u) << "pin caught an unpublished state";
  }
  writer.join();
  EXPECT_EQ(cs.pin()->rows(), 40u * 137u);
}

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
  EXPECT_EQ(h, 0x266defadb6d79944ull) << std::hex << h;
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
  const fs::path col = fs::path(cache) / entries[0].name / "MILC-128" / "steps" /
                       "step_time.col";
  ASSERT_TRUE(fs::exists(col));
  {
    std::fstream f(col, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
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

/// Republish the sub-store at `dir` with row `row` of F64 column `name`
/// set to `v`: a well-formed store (fresh CRCs) holding a bad value.
void rewrite_f64_cell(const fs::path& dir, const std::string& name, std::size_t row, double v) {
  const auto pin = ColumnStore::open_pin(dir.string());
  const std::vector<ColumnSpec> specs(pin->columns().begin(), pin->columns().end());
  std::vector<std::vector<double>> f64;
  std::vector<std::vector<std::uint8_t>> u8;
  for (const ColumnSpec& s : specs) {
    if (s.kind == ColumnKind::U8) {
      const auto col = pin->u8(s.name);
      u8.emplace_back(col.begin(), col.end());
    } else {
      const auto col = pin->f64(s.name);
      f64.emplace_back(col.begin(), col.end());
      if (s.name == name) f64.back().at(row) = v;
    }
  }
  AppendChunk chunk;
  chunk.rows = pin->rows();
  for (const auto& c : f64) chunk.f64.emplace_back(c);
  for (const auto& c : u8) chunk.u8.emplace_back(c);
  fs::remove_all(dir);
  (void)ColumnStore::create(dir.string(), specs, {}, chunk);
}

TEST_F(StoreTest, BadIntegerCellsAreCorruptEntries) {
  const sim::CampaignConfig cfg = tiny_config(48);
  const std::string cache = scratch("campaign_store_bad_ints");
  const sim::CampaignResult first = sim::run_campaign_cached(cfg, cache);
  const auto entries = sim::list_cache_entries(cache);
  ASSERT_EQ(entries.size(), 1u);
  const fs::path entry = fs::path(cache) / entries[0].name;
  const fs::path runs = entry / "MILC-128" / "runs";

  // Each bad value is rejected at load with a ContractError...
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [column, v] : std::vector<std::pair<std::string, double>>{
           {"steps", -1.0}, {"steps", nan}, {"steps", 2.5}, {"steps", 1e300},
           {"neigh_count", -1.0}, {"job_id", 4294967297.0}, {"num_groups", nan}}) {
    rewrite_f64_cell(runs, column, 0, v);
    EXPECT_THROW((void)sim::CampaignStorePin::open(entry.string()).load_all(), ContractError)
        << column << " = " << v;
  }
  // ...which the cache treats as a corrupt entry: evict and regenerate.
  rewrite_f64_cell(runs, "steps", 0, -1.0);
  const sim::CampaignResult second = sim::run_campaign_cached(cfg, cache);
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], second.datasets[i]);
  EXPECT_NO_THROW((void)sim::CampaignStorePin::open(entry.string()).load_all());
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
  // Each sub-store is published exactly once.
  EXPECT_EQ(ColumnStore::open_pin((entry / "MILC-128" / "steps").string())->epoch(), 1u);

  // A writer that died after the sub-stores but before META: the entry
  // reads as absent, so the next call regenerates and must commit again.
  fs::remove(entry / "META");
  ASSERT_FALSE(sim::campaign_store_exists(entry.string()));
  const sim::CampaignResult second = sim::run_campaign_cached(cfg, cache);
  ASSERT_TRUE(sim::campaign_store_exists(entry.string()));
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], second.datasets[i]);

  // The third call loads the entry instead of regenerating it: no file
  // of the entry is rewritten.
  const fs::path col = entry / "MILC-128" / "steps" / "step_time.col";
  const auto old_time = fs::last_write_time(col) - std::chrono::hours(1);
  fs::last_write_time(col, old_time);
  const sim::CampaignResult third = sim::run_campaign_cached(cfg, cache);
  EXPECT_EQ(fs::last_write_time(col), old_time);
  for (std::size_t i = 0; i < first.datasets.size(); ++i)
    expect_dataset_eq(first.datasets[i], third.datasets[i]);
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
  // files, no sub-stores. It is not a campaign store, and LRU still
  // removes it like any other entry. So is a bare column store (a
  // MANIFEST and columns, no META), which no build writes into the cache.
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
