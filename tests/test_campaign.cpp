#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/integrity.hpp"
#include "common/log.hpp"
#include "exec/exec.hpp"

namespace dfv::sim {
namespace {

CampaignConfig tiny_config(std::uint64_t seed = 42) {
  CampaignConfig cfg = CampaignConfig::small(seed);
  cfg.days = 3;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
  return cfg;
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override { set_log_level(LogLevel::Warn); }
};

TEST_F(CampaignTest, ProducesRequestedDatasets) {
  const CampaignResult res = run_campaign(tiny_config());
  ASSERT_EQ(res.datasets.size(), 2u);
  EXPECT_EQ(res.datasets[0].spec.label(), "MILC-128");
  EXPECT_EQ(res.datasets[1].spec.label(), "UMT-128");
  // ~1-2 jobs per dataset per day over 3 days.
  for (const auto& ds : res.datasets) {
    EXPECT_GE(ds.num_runs(), 3u);
    EXPECT_LE(ds.num_runs(), 6u);
  }
  EXPECT_EQ(res.datasets[0].steps_per_run(), 80);
  EXPECT_EQ(res.datasets[1].steps_per_run(), 7);
}

TEST_F(CampaignTest, RunsAreChronologicalAndDisjoint) {
  const CampaignResult res = run_campaign(tiny_config());
  for (const auto& ds : res.datasets) {
    for (std::size_t i = 1; i < ds.runs.size(); ++i)
      EXPECT_GE(ds.runs[i].start_time_s, ds.runs[i - 1].end_time_s);
  }
}

TEST_F(CampaignTest, NeighborhoodsFilledAndExcludeSelf) {
  const CampaignResult res = run_campaign(tiny_config());
  bool any_users = false;
  for (const auto& ds : res.datasets)
    for (const auto& run : ds.runs) {
      any_users |= !run.neighborhood_users.empty();
      EXPECT_TRUE(std::is_sorted(run.neighborhood_users.begin(),
                                 run.neighborhood_users.end()));
    }
  EXPECT_TRUE(any_users);
}

TEST_F(CampaignTest, SacctContainsInstrumentedAndBackgroundJobs) {
  const CampaignConfig cfg = tiny_config();
  const CampaignResult res = run_campaign(cfg);
  int ours = 0, theirs = 0;
  for (const auto& rec : res.sacct)
    (rec.user_id == sched::kCampaignUserId ? ours : theirs) += 1;
  // Our account has at least the instrumented runs; others ran too.
  std::size_t instrumented = 0;
  for (const auto& ds : res.datasets) instrumented += ds.num_runs();
  EXPECT_GE(std::size_t(ours), instrumented);
  EXPECT_GT(theirs, 0);
}

TEST_F(CampaignTest, DeterministicForSameSeed) {
  const CampaignResult a = run_campaign(tiny_config(7));
  const CampaignResult b = run_campaign(tiny_config(7));
  ASSERT_EQ(a.datasets[0].num_runs(), b.datasets[0].num_runs());
  for (std::size_t r = 0; r < a.datasets[0].runs.size(); ++r)
    EXPECT_DOUBLE_EQ(a.datasets[0].runs[r].total_time_s(),
                     b.datasets[0].runs[r].total_time_s());
}

TEST_F(CampaignTest, DifferentSeedsDiffer) {
  const CampaignResult a = run_campaign(tiny_config(7));
  const CampaignResult b = run_campaign(tiny_config(8));
  bool differs = a.datasets[0].num_runs() != b.datasets[0].num_runs();
  if (!differs)
    for (std::size_t r = 0; r < a.datasets[0].runs.size(); ++r)
      differs |= a.datasets[0].runs[r].total_time_s() !=
                 b.datasets[0].runs[r].total_time_s();
  EXPECT_TRUE(differs);
}

TEST_F(CampaignTest, FingerprintSensitivity) {
  const CampaignConfig base = tiny_config();
  CampaignConfig other = base;
  EXPECT_EQ(config_fingerprint(base), config_fingerprint(other));
  other.seed += 1;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(other));
  other = base;
  other.days += 1;
  EXPECT_NE(config_fingerprint(base), config_fingerprint(other));
  other = base;
  other.datasets.pop_back();
  EXPECT_NE(config_fingerprint(base), config_fingerprint(other));
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.datasets.size(), b.datasets.size());
  for (std::size_t d = 0; d < a.datasets.size(); ++d) {
    const Dataset& x = a.datasets[d];
    const Dataset& y = b.datasets[d];
    ASSERT_EQ(x.num_runs(), y.num_runs()) << x.spec.label();
    for (std::size_t r = 0; r < x.runs.size(); ++r) {
      const RunRecord& p = x.runs[r];
      const RunRecord& q = y.runs[r];
      EXPECT_EQ(p.job_id, q.job_id);
      // EXPECT_EQ on doubles is exact ==: the claim is bit-identical,
      // not approximately equal.
      EXPECT_EQ(p.submit_time_s, q.submit_time_s);
      EXPECT_EQ(p.start_time_s, q.start_time_s);
      EXPECT_EQ(p.end_time_s, q.end_time_s);
      EXPECT_EQ(p.num_routers, q.num_routers);
      EXPECT_EQ(p.num_groups, q.num_groups);
      EXPECT_EQ(p.step_times, q.step_times);
      EXPECT_EQ(p.step_counters, q.step_counters);
      ASSERT_EQ(p.step_ldms.size(), q.step_ldms.size());
      for (std::size_t s = 0; s < p.step_ldms.size(); ++s) {
        EXPECT_EQ(p.step_ldms[s].io, q.step_ldms[s].io);
        EXPECT_EQ(p.step_ldms[s].sys, q.step_ldms[s].sys);
      }
      EXPECT_EQ(p.profile.compute_s, q.profile.compute_s);
      EXPECT_EQ(p.profile.routine_s, q.profile.routine_s);
      EXPECT_EQ(p.neighborhood_users, q.neighborhood_users);
    }
  }
}

TEST_F(CampaignTest, CacheRoundTrip) {
  namespace fs = std::filesystem;
  const std::string cache = testing::TempDir() + "/dfv_campaign_cache";
  fs::remove_all(cache);
  const CampaignConfig cfg = tiny_config(11);

  const CampaignResult fresh = run_campaign_cached(cfg, cache);
  // A second call loads from disk and matches bit for bit.
  const CampaignResult loaded = run_campaign_cached(cfg, cache);
  expect_bit_identical(fresh, loaded);
  fs::remove_all(cache);
}

TEST_F(CampaignTest, BitIdenticalAcrossThreadCounts) {
  CampaignConfig serial = tiny_config(13);
  serial.threads = 1;
  const CampaignResult a = run_campaign(serial);

  CampaignConfig eight = tiny_config(13);
  eight.threads = 8;
  const CampaignResult b = run_campaign(eight);
  exec::ThreadPool::instance().resize(exec::resolve_threads());

  expect_bit_identical(a, b);
}

// The simulator's output pinned across commits: FNV-1a over the bit
// patterns of every RunRecord field that BitIdenticalAcrossThreadCounts
// compares, for a 1-day small campaign. A change that moves any output
// bit (routing, rate solve, counters, scheduling) changes this digest.
TEST_F(CampaignTest, GoldenDigest) {
  CampaignConfig cfg = CampaignConfig::small(42);
  cfg.days = 1;
  const CampaignResult res = run_campaign(cfg);

  std::uint64_t h = kFnvBasis;
  const auto put_f = [&h](double v) {
    const auto u = std::bit_cast<std::uint64_t>(v);
    h = fnv1a64_update(h, &u, sizeof u);
  };
  const auto put_i = [&h](std::int64_t v) { h = fnv1a64_update(h, &v, sizeof v); };
  std::size_t runs = 0;
  for (const Dataset& ds : res.datasets) {
    put_i(std::int64_t(ds.runs.size()));
    for (const RunRecord& run : ds.runs) {
      ++runs;
      put_i(run.job_id);
      put_f(run.submit_time_s);
      put_f(run.start_time_s);
      put_f(run.end_time_s);
      put_i(run.num_routers);
      put_i(run.num_groups);
      put_i(std::int64_t(run.step_times.size()));
      for (double v : run.step_times) put_f(v);
      for (const auto& ctr : run.step_counters)
        for (double v : ctr) put_f(v);
      for (const auto& ldms : run.step_ldms) {
        for (double v : ldms.io) put_f(v);
        for (double v : ldms.sys) put_f(v);
      }
      put_f(run.profile.compute_s);
      for (double v : run.profile.routine_s) put_f(v);
      put_i(std::int64_t(run.neighborhood_users.size()));
      for (int u : run.neighborhood_users) put_i(u);
    }
  }
  EXPECT_GT(runs, 0u);
  EXPECT_EQ(h, 0x68cf4d5addd07aaaull) << std::hex << h;
}

TEST_F(CampaignTest, ThreadCountInvariantCacheEntries) {
  namespace fs = std::filesystem;
  CampaignConfig c1 = tiny_config(17);
  c1.threads = 1;
  CampaignConfig c8 = tiny_config(17);
  c8.threads = 8;
  // The thread count is deliberately not fingerprinted: output is
  // thread-invariant, so caches are shared across --threads settings.
  ASSERT_EQ(config_fingerprint(c1), config_fingerprint(c8));

  const std::string dir1 = testing::TempDir() + "/dfv_det_t1";
  const std::string dir8 = testing::TempDir() + "/dfv_det_t8";
  fs::remove_all(dir1);
  fs::remove_all(dir8);
  (void)run_campaign_cached(c1, dir1);
  (void)run_campaign_cached(c8, dir8);
  exec::ThreadPool::instance().resize(exec::resolve_threads());

  // Same fingerprint-keyed entry name, byte-identical file contents.
  const auto slurp_tree = [](const std::string& root) {
    std::map<std::string, std::string> files;
    for (const auto& e : fs::recursive_directory_iterator(root)) {
      if (!e.is_regular_file()) continue;
      std::ifstream in(e.path(), std::ios::binary);
      std::ostringstream body;
      body << in.rdbuf();
      files[fs::relative(e.path(), root).string()] = body.str();
    }
    return files;
  };
  const auto t1 = slurp_tree(dir1);
  const auto t8 = slurp_tree(dir8);
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t8);
  fs::remove_all(dir1);
  fs::remove_all(dir8);
}

TEST_F(CampaignTest, ValidateRejectsNonsense) {
  CampaignConfig cfg = tiny_config();
  EXPECT_NO_THROW(cfg.validate());
  cfg.days = 0;
  EXPECT_THROW(cfg.validate(), ContractError);
  cfg = tiny_config();
  cfg.datasets.clear();
  EXPECT_THROW(cfg.validate(), ContractError);
  cfg = tiny_config();
  cfg.datasets[0].nodes = -1;
  EXPECT_THROW(cfg.validate(), ContractError);
  cfg = tiny_config();
  cfg.threads = -2;
  EXPECT_THROW(cfg.validate(), ContractError);
}

TEST_F(CampaignTest, BuilderFluentConstruction) {
  const CampaignConfig cfg = CampaignConfig::small_machine(7)
                                 .days(3)
                                 .threads(2)
                                 .dataset("MILC", 128)
                                 .dataset("UMT", 128)
                                 .build();
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_EQ(cfg.days, 3);
  EXPECT_EQ(cfg.threads, 2);
  ASSERT_EQ(cfg.datasets.size(), 2u);  // dataset() replaced the defaults
  EXPECT_EQ(cfg.datasets[0].label(), "MILC-128");
  EXPECT_THROW((void)CampaignConfig::cori().days(-1).build(), ContractError);
}

TEST_F(CampaignTest, DatasetLookup) {
  const CampaignResult res = run_campaign(tiny_config());
  EXPECT_EQ(res.dataset("MILC", 128).spec.app, "MILC");
  EXPECT_THROW((void)res.dataset("AMG", 512), ContractError);
}

}  // namespace
}  // namespace dfv::sim
