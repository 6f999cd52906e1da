// Integrity layer (FNV-1a footers, atomic publish) behind the dataset CSV
// export, and the hardened campaign cache: a damaged column-store entry
// is evicted and the campaign regenerates transparently.
#include "common/integrity.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "sim/campaign.hpp"
#include "sim/dataset.hpp"

namespace dfv {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spit(const fs::path& p, const std::string& content) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << content;
}

sim::Dataset tiny_dataset(int runs, int steps, std::uint64_t seed) {
  sim::Dataset ds;
  ds.spec = {"MILC", 128};
  Rng rng(seed);
  for (int r = 0; r < runs; ++r) {
    sim::RunRecord rec;
    rec.job_id = 100 + r;
    rec.num_routers = 32;
    rec.num_groups = 3;
    rec.profile.add_compute(10.0);
    for (int t = 0; t < steps; ++t) {
      rec.step_times.push_back(5.0 + rng.uniform());
      mon::CounterVec cv{};
      for (int c = 0; c < mon::kNumCounters; ++c) cv[std::size_t(c)] = rng.uniform(0, 1e9);
      rec.step_counters.push_back(cv);
      rec.step_ldms.emplace_back();
    }
    ds.runs.push_back(std::move(rec));
  }
  return ds;
}

sim::CampaignConfig tiny_config(std::uint64_t seed = 42) {
  sim::CampaignConfig cfg = sim::CampaignConfig::small(seed);
  cfg.days = 3;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
  return cfg;
}

class CacheIntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::Warn); }
};

// ---------------------------------------------------------------------------
// FNV-1a and the checksum footer
// ---------------------------------------------------------------------------

TEST_F(CacheIntegrityTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST_F(CacheIntegrityTest, FooterRoundTrip) {
  const std::string original = "alpha,beta\n1,2\n3,4\n";
  std::string text = original;
  append_checksum_footer(text);
  EXPECT_NE(text.find(kChecksumPrefix), std::string::npos);
  EXPECT_EQ(verify_and_strip_checksum(text), ChecksumStatus::Ok);
  EXPECT_EQ(text, original);
}

TEST_F(CacheIntegrityTest, BitFlipIsDetected) {
  std::string text = "alpha,beta\n1,2\n3,4\n";
  append_checksum_footer(text);
  text[3] ^= 0x01;  // flip one bit of the body
  EXPECT_EQ(verify_and_strip_checksum(text), ChecksumStatus::Mismatch);
}

TEST_F(CacheIntegrityTest, MissingFooterLeavesContentUntouched) {
  const std::string original = "no footer here\n";
  std::string text = original;
  EXPECT_EQ(verify_and_strip_checksum(text), ChecksumStatus::Missing);
  EXPECT_EQ(text, original);
  // An empty file has no footer either.
  std::string empty;
  EXPECT_EQ(verify_and_strip_checksum(empty), ChecksumStatus::Missing);
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

TEST_F(CacheIntegrityTest, AtomicWritePublishesAndCleansUp) {
  const fs::path dir = fs::path(testing::TempDir()) / "dfv_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path file = dir / "out.csv";

  ASSERT_TRUE(atomic_write_file(file.string(), "first\n"));
  EXPECT_EQ(slurp(file), "first\n");
  EXPECT_FALSE(fs::exists(file.string() + ".tmp"));  // temp renamed away

  // Overwrite is atomic too.
  ASSERT_TRUE(atomic_write_file(file.string(), "second\n"));
  EXPECT_EQ(slurp(file), "second\n");
  EXPECT_FALSE(fs::exists(file.string() + ".tmp"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Dataset save/load with integrity
// ---------------------------------------------------------------------------

TEST_F(CacheIntegrityTest, SaveLoadDatasetVerifiesChecksum) {
  const fs::path dir = fs::path(testing::TempDir()) / "dfv_ds_io";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path file = dir / "ds.csv";

  const sim::Dataset ds = tiny_dataset(3, 5, 9);
  ASSERT_TRUE(sim::save_dataset(ds, file.string()));
  EXPECT_FALSE(fs::exists(file.string() + ".tmp"));

  const sim::Dataset back = sim::load_dataset(file.string(), /*require_checksum=*/true);
  ASSERT_EQ(back.runs.size(), ds.runs.size());
  for (std::size_t r = 0; r < ds.runs.size(); ++r)
    EXPECT_EQ(back.runs[r].step_times, ds.runs[r].step_times);
  fs::remove_all(dir);
}

TEST_F(CacheIntegrityTest, CorruptDatasetFileThrows) {
  const fs::path dir = fs::path(testing::TempDir()) / "dfv_ds_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path file = dir / "ds.csv";
  ASSERT_TRUE(sim::save_dataset(tiny_dataset(2, 4, 5), file.string()));

  std::string raw = slurp(file);
  raw[raw.size() / 2] ^= 0x04;  // flip one bit mid-file
  spit(file, raw);
  EXPECT_THROW((void)sim::load_dataset(file.string()), ContractError);

  // A zero-byte file (crash mid-create before the rename) has no footer:
  // rejected whenever the checksum is required.
  spit(file, "");
  EXPECT_THROW((void)sim::load_dataset(file.string(), /*require_checksum=*/true),
               ContractError);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Campaign cache eviction and regeneration
// ---------------------------------------------------------------------------

void expect_same_totals(const sim::CampaignResult& a, const sim::CampaignResult& b) {
  ASSERT_EQ(a.datasets.size(), b.datasets.size());
  for (std::size_t d = 0; d < a.datasets.size(); ++d) {
    ASSERT_EQ(a.datasets[d].num_runs(), b.datasets[d].num_runs());
    for (std::size_t r = 0; r < a.datasets[d].runs.size(); ++r)
      EXPECT_EQ(a.datasets[d].runs[r].total_time_s(),
                b.datasets[d].runs[r].total_time_s());
  }
}

fs::path cache_entry_dir(const std::string& cache, const sim::CampaignConfig& cfg) {
  std::ostringstream os;
  os << "campaign_" << std::hex << sim::config_fingerprint(cfg) << ".store";
  return fs::path(cache) / os.str();
}

std::map<std::string, std::string> slurp_tree(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(root))
    if (e.is_regular_file()) files[fs::relative(e.path(), root).string()] = slurp(e.path());
  return files;
}

TEST_F(CacheIntegrityTest, PartialCacheEntryIsRegenerated) {
  const std::string cache = testing::TempDir() + "/dfv_cache_partial";
  fs::remove_all(cache);
  const sim::CampaignConfig cfg = tiny_config(23);

  const sim::CampaignResult fresh = sim::run_campaign_cached(cfg, cache);
  const fs::path entry = cache_entry_dir(cache, cfg);
  const auto published = slurp_tree(entry);

  // Simulate a lost sub-store with META intact (e.g. manual deletion).
  ASSERT_TRUE(fs::exists(entry / "META"));
  ASSERT_TRUE(fs::remove_all(entry / "UMT-128" / "steps") > 0);
  const sim::CampaignResult regen = sim::run_campaign_cached(cfg, cache);
  expect_same_totals(fresh, regen);
  // The regenerated entry is the one first published, byte for byte.
  EXPECT_EQ(slurp_tree(entry), published);
  fs::remove_all(cache);
}

TEST_F(CacheIntegrityTest, FaultedCampaignCacheRoundTripsVerbatim) {
  // Degraded telemetry (NaN cells, quality masks, short runs) must
  // survive the cache byte-exactly under the Keep policy.
  const std::string cache = testing::TempDir() + "/dfv_cache_faulted";
  fs::remove_all(cache);
  sim::CampaignConfig cfg = tiny_config(29);
  cfg.faults.rate = 0.1;

  const sim::CampaignResult fresh = sim::run_campaign_cached(cfg, cache);
  const sim::CampaignResult loaded = sim::run_campaign_cached(cfg, cache);
  ASSERT_EQ(loaded.datasets.size(), fresh.datasets.size());
  for (std::size_t d = 0; d < fresh.datasets.size(); ++d) {
    const auto& x = fresh.datasets[d];
    const auto& y = loaded.datasets[d];
    ASSERT_EQ(x.num_runs(), y.num_runs());
    for (std::size_t r = 0; r < x.runs.size(); ++r) {
      EXPECT_EQ(x.runs[r].step_quality, y.runs[r].step_quality);
      EXPECT_EQ(x.runs[r].profile_missing, y.runs[r].profile_missing);
      ASSERT_EQ(x.runs[r].steps(), y.runs[r].steps());
    }
  }
  fs::remove_all(cache);
}

}  // namespace
}  // namespace dfv
