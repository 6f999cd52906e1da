// Out-of-core column store: append/publish/pin round trips, zone-map
// statistics, append-batching byte invariance, torn-write and
// truncated-segment recovery, snapshot-under-concurrent-append
// consistency, zero-copy training-view bit-identity against the in-RAM
// BinnedDataset path, the campaign-store cache format, and cache GC.
#include "store/column_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "ml/gbr.hpp"
#include "ml/rfe.hpp"
#include "sim/cache_gc.hpp"
#include "sim/campaign.hpp"
#include "sim/campaign_store.hpp"
#include "store/longitudinal.hpp"
#include "store/training_view.hpp"

namespace dfv {
namespace {

namespace fs = std::filesystem;
using store::AppendChunk;
using store::ColumnKind;
using store::ColumnSpec;
using store::ColumnStore;
using store::StoreOptions;
using store::StorePin;

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
  // Streaming mean from zone sums equals the direct mean combine.
  double sum = 0.0;
  for (const auto& z : zones) sum += z.sum;
  EXPECT_EQ(pin->mean("a"), sum / 200.0);

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
  EXPECT_TRUE(std::isnan(pin->mean("v")));  // sum is NaN-poisoning: honest mean
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
  EXPECT_EQ(cs1.pin()->mean("b"), cs2.pin()->mean("b"));
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
// Snapshots: point-in-time under a concurrent writer, byte stability
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

  // Concurrently pin published states and snapshot them: every snapshot
  // must be a CRC-clean point-in-time prefix of the logical content.
  std::vector<std::string> snap_dirs;
  for (int s = 0; s < 5; ++s) {
    const auto pin = cs.pin();
    EXPECT_NO_THROW(pin->verify_integrity());
    const std::string snap = scratch("store_snap_conc_out_" + std::to_string(s));
    pin->snapshot_to(snap);
    snap_dirs.push_back(snap);
  }
  writer.join();

  for (const std::string& snap : snap_dirs) {
    const auto pin = ColumnStore::open_pin(snap);
    EXPECT_NO_THROW(pin->verify_integrity());
    const auto a = pin->f64("a");
    const auto q = pin->u8("q");
    for (std::uint64_t i = 0; i < pin->rows(); ++i) {
      ASSERT_TRUE(bit_eq(a[i], val_a(i))) << "row " << i << " of " << snap;
      ASSERT_EQ(q[i], val_q(i)) << "row " << i << " of " << snap;
    }
    EXPECT_EQ(pin->rows() % 137, 0u) << "snapshot caught an unpublished state";
  }
  EXPECT_EQ(cs.pin()->rows(), 40u * 137u);
}

TEST_F(StoreTest, SnapshotReplayIsByteStable) {
  const std::string dir = scratch("store_snap_stable");
  ColumnStore cs = ColumnStore::create(dir, fixture_specs(), small_segments());
  append_fixture_rows(cs, 0, 321);
  cs.publish();

  const auto pin = cs.pin();
  const std::string s1 = scratch("store_snap_stable_1");
  const std::string s2 = scratch("store_snap_stable_2");
  pin->snapshot_to(s1);
  pin->snapshot_to(s2);
  for (const char* f : {"MANIFEST", "a.col", "b.col", "q.col"})
    EXPECT_EQ(slurp(fs::path(s1) / f), slurp(fs::path(s2) / f)) << f;
  EXPECT_EQ(ColumnStore::open_pin(s1)->content_fingerprint(),
            pin->content_fingerprint());
  // A snapshot refuses to land on an existing store.
  EXPECT_THROW(pin->snapshot_to(s1), ContractError);
}

// ---------------------------------------------------------------------------
// Training views: bit-identity with the in-RAM BinnedDataset path
// ---------------------------------------------------------------------------

/// Six nonlinear features plus a target, appended as one store; returns
/// the published pin.
std::shared_ptr<const StorePin> make_training_store(const std::string& dir,
                                                    std::size_t rows) {
  std::vector<ColumnSpec> specs;
  for (int f = 0; f < 6; ++f) {
    std::string name = "f";  // += sidesteps a GCC 12 -O3 -Wrestrict FP
    name += std::to_string(f);
    specs.push_back({std::move(name), ColumnKind::F64});
  }
  specs.push_back({"y", ColumnKind::F64});
  StoreOptions opt;
  opt.segment_rows = 256;
  ColumnStore cs = ColumnStore::create(dir, specs, opt);

  std::vector<std::vector<double>> cols(7, std::vector<double>(rows));
  Rng rng(0xbeef);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int f = 0; f < 6; ++f) cols[std::size_t(f)][r] = rng.uniform(-1.0, 1.0);
    const double y = cols[0][r] + 2.0 * cols[1][r] * cols[2][r] +
                     (cols[3][r] > 0.3 ? 1.5 : 0.0) + 0.05 * rng.normal();
    cols[6][r] = y;
  }
  AppendChunk chunk;
  chunk.rows = rows;
  for (const auto& c : cols) chunk.f64.emplace_back(c.data(), c.size());
  cs.append(chunk);
  cs.publish();
  return cs.pin();
}

store::TrainingSpec training_spec() {
  store::TrainingSpec spec;
  // Built with += rather than `"f" + std::to_string(f)`: GCC 12 at -O3
  // flags the rvalue operator+ chain with a spurious -Wrestrict.
  for (int f = 0; f < 6; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    spec.features.push_back(std::move(name));
  }
  spec.target = "y";
  return spec;
}

/// Materialize the pinned feature columns into an in-RAM Matrix (the
/// baseline the out-of-core path must match bit-for-bit).
ml::Matrix materialize(const StorePin& pin, const store::TrainingSpec& spec) {
  ml::Matrix x(pin.rows(), spec.features.size());
  for (std::size_t f = 0; f < spec.features.size(); ++f) {
    const auto col = pin.f64(spec.features[f]);
    for (std::size_t r = 0; r < col.size(); ++r) x(r, f) = col[r];
  }
  return x;
}

TEST_F(StoreTest, TrainingViewMatchesInRamBinningBitExact) {
  const std::string dir = scratch("store_view_bits");
  const auto pin = make_training_store(dir, 1500);
  const store::TrainingSpec spec = training_spec();
  const store::TrainingView view = store::TrainingView::build(pin, spec);
  EXPECT_FALSE(view.reused_sidecars());
  EXPECT_FALSE(view.binned().has_source());
  EXPECT_THROW((void)view.binned().source(), ContractError);

  const ml::Matrix x = materialize(*pin, spec);
  const ml::BinnedDataset ram(x, spec.bins);
  ASSERT_EQ(view.rows(), ram.rows());
  ASSERT_EQ(view.features(), ram.features());
  for (std::size_t f = 0; f < ram.features(); ++f) {
    ASSERT_EQ(view.binned().edges(f).size(), ram.edges(f).size()) << "feature " << f;
    for (std::size_t e = 0; e < ram.edges(f).size(); ++e)
      EXPECT_TRUE(bit_eq(view.binned().edges(f)[e], ram.edges(f)[e]));
    const auto vc = view.binned().feature_codes(f);
    const auto rc = ram.feature_codes(f);
    for (std::size_t r = 0; r < ram.rows(); ++r)
      ASSERT_EQ(vc[r], rc[r]) << "feature " << f << " row " << r;
  }
  // The streaming target mean equals the zone-map combine by definition;
  // it must also match a plain serial sum over the mapped column.
  double sum = 0.0;
  for (double v : view.y()) sum += v;
  EXPECT_DOUBLE_EQ(view.y_mean(), sum / double(view.rows()));
}

TEST_F(StoreTest, GbrOutOfCoreIsBitIdenticalToInRam) {
  const std::string dir = scratch("store_view_gbr");
  const auto pin = make_training_store(dir, 1200);
  const store::TrainingSpec spec = training_spec();
  const store::TrainingView view = store::TrainingView::build(pin, spec);
  const ml::Matrix x = materialize(*pin, spec);
  const auto y = view.y();

  ml::GbrParams params;
  params.n_trees = 12;

  ml::GradientBoostedRegressor in_ram(params);
  in_ram.fit(x, std::vector<double>(y.begin(), y.end()));

  ml::GradientBoostedRegressor ooc(params);
  std::vector<std::size_t> rows(view.rows());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  ooc.fit(view.binned(), y, rows, ml::FeatureMask::all(view.features()));

  ASSERT_EQ(in_ram.tree_count(), ooc.tree_count());
  for (std::size_t r = 0; r < view.rows(); ++r)
    ASSERT_TRUE(bit_eq(in_ram.predict_one(x.row(r)), ooc.predict_one(x.row(r))))
        << "row " << r;
  const auto imp_ram = in_ram.feature_importances();
  const auto imp_ooc = ooc.feature_importances();
  for (std::size_t f = 0; f < imp_ram.size(); ++f)
    EXPECT_TRUE(bit_eq(imp_ram[f], imp_ooc[f]));
}

TEST_F(StoreTest, RfeOutOfCoreIsBitIdenticalToInRam) {
  const std::string dir = scratch("store_view_rfe");
  const auto pin = make_training_store(dir, 900);
  const store::TrainingSpec spec = training_spec();
  const store::TrainingView view = store::TrainingView::build(pin, spec);
  const ml::Matrix x = materialize(*pin, spec);
  const auto y = view.y();

  ml::RfeParams params;
  params.folds = 2;
  params.gbr.n_trees = 6;
  params.with_linear_baseline = false;  // the one consumer needing source()

  const ml::BinnedDataset ram(x, spec.bins);
  const ml::RfeResult a = ml::rfe_cv(ram, y, params);
  const ml::RfeResult b = ml::rfe_cv(view.binned(), y, params);

  ASSERT_EQ(a.relevance.size(), b.relevance.size());
  for (std::size_t f = 0; f < a.relevance.size(); ++f) {
    EXPECT_TRUE(bit_eq(a.relevance[f], b.relevance[f])) << "feature " << f;
    EXPECT_TRUE(bit_eq(a.survival[f], b.survival[f])) << "feature " << f;
  }
  EXPECT_TRUE(bit_eq(a.cv_mape_full, b.cv_mape_full));
  EXPECT_TRUE(std::isnan(a.cv_mape_linear));
  EXPECT_TRUE(std::isnan(b.cv_mape_linear));

  // Asking for the ridge baseline over an external-memory view is a
  // contract violation, not a silent fallback.
  params.with_linear_baseline = true;
  EXPECT_THROW((void)ml::rfe_cv(view.binned(), y, params), ContractError);
}

TEST_F(StoreTest, SidecarsAreReusedAndStaleOnesCollected) {
  const std::string dir = scratch("store_view_sidecar");
  {
    ColumnStore cs = ColumnStore::create(
        dir,
        {{"f0", ColumnKind::F64}, {"f1", ColumnKind::F64}, {"f2", ColumnKind::F64},
         {"f3", ColumnKind::F64}, {"f4", ColumnKind::F64}, {"f5", ColumnKind::F64},
         {"y", ColumnKind::F64}},
        small_segments());
    std::vector<std::vector<double>> cols(7, std::vector<double>(400));
    Rng rng(7);
    for (std::size_t r = 0; r < 400; ++r)
      for (std::size_t c = 0; c < 7; ++c) cols[c][r] = rng.uniform(-2.0, 2.0);
    AppendChunk chunk;
    chunk.rows = 400;
    for (const auto& c : cols) chunk.f64.emplace_back(c.data(), c.size());
    cs.append(chunk);
    cs.publish();

    const store::TrainingSpec spec = training_spec();
    const auto pin1 = cs.pin();
    EXPECT_FALSE(store::TrainingView::build(pin1, spec).reused_sidecars());
    EXPECT_TRUE(store::TrainingView::build(pin1, spec).reused_sidecars());

    // Appending invalidates the sidecars (fingerprint moved on): a view
    // over the new pin rebuilds, and GC sweeps the stale files.
    chunk.rows = 100;
    chunk.f64.clear();
    for (const auto& c : cols) chunk.f64.emplace_back(c.data(), 100);
    cs.append(chunk);
    cs.publish();
    const auto pin2 = cs.pin();
    const std::size_t removed = store::TrainingView::gc_stale_views(*pin2);
    EXPECT_EQ(removed, 2u);  // old .edges + .codes
    EXPECT_FALSE(store::TrainingView::build(pin2, spec).reused_sidecars());
    EXPECT_TRUE(store::TrainingView::build(pin2, spec).reused_sidecars());
    EXPECT_EQ(store::TrainingView::gc_stale_views(*pin2), 0u);
  }
}

// ---------------------------------------------------------------------------
// Longitudinal generator: append cadence never changes the bytes
// ---------------------------------------------------------------------------

TEST_F(StoreTest, LongitudinalAppendBatchingIsDeterministic) {
  const store::LongitudinalSpec spec;
  const std::string one = scratch("store_long_one");
  const std::string many = scratch("store_long_many");

  ColumnStore a = store::open_longitudinal_store(one);
  store::append_longitudinal_runs(a, spec, 0, 300);

  ColumnStore b = store::open_longitudinal_store(many);
  store::append_longitudinal_runs(b, spec, 0, 120);
  store::append_longitudinal_runs(b, spec, 120, 80);
  store::append_longitudinal_runs(b, spec, 200, 100);

  EXPECT_EQ(a.pin()->content_fingerprint(), b.pin()->content_fingerprint());
  EXPECT_EQ(slurp(fs::path(one) / "run_time_s.col"),
            slurp(fs::path(many) / "run_time_s.col"));
  // Appends must be contiguous: a gap is a contract violation.
  EXPECT_THROW(store::append_longitudinal_runs(b, spec, 500, 10), ContractError);
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
  // removes it like any other entry.
  const std::string cache = scratch("cache_stale_csv");
  const auto now = fs::file_time_type::clock::now();
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
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, stale.filename().string());
  EXPECT_EQ(entries[0].kind, "other");
  EXPECT_EQ(entries[1].kind, "campaign-store");

  const auto evicted = sim::evict_cache_lru(cache, 1000);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], stale.filename().string());
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
