#include "sim/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/campaign_store.hpp"
#include "scratch_dir.hpp"

namespace dfv::sim {
namespace {

using testutil::scratch;

const auto* const kScratch = ::testing::AddGlobalTestEnvironment(new testutil::ScratchRoot);

Dataset make_synthetic(int runs, int steps, std::uint64_t seed) {
  Dataset ds;
  ds.spec = {"MILC", 128};
  Rng rng(seed);
  for (int r = 0; r < runs; ++r) {
    RunRecord rec;
    rec.job_id = 100 + r;
    rec.submit_time_s = r * 1000.0;
    rec.start_time_s = r * 1000.0 + 60.0;
    rec.num_routers = 32 + r;
    rec.num_groups = 3;
    rec.neighborhood_users = {2, 8, 100 + r};
    rec.profile.add_compute(12.5);
    rec.profile.add(mon::MpiRoutine::Wait, 30.0);
    for (int t = 0; t < steps; ++t) {
      rec.step_times.push_back(5.0 + t + rng.uniform());
      mon::CounterVec cv{};
      for (int c = 0; c < mon::kNumCounters; ++c) cv[std::size_t(c)] = rng.uniform(0, 1e9);
      rec.step_counters.push_back(cv);
      mon::LdmsFeatures lf;
      for (auto& v : lf.io) v = rng.uniform(0, 1e8);
      for (auto& v : lf.sys) v = rng.uniform(0, 1e8);
      rec.step_ldms.push_back(lf);
    }
    rec.end_time_s = rec.start_time_s + rec.total_time_s();
    ds.runs.push_back(std::move(rec));
  }
  return ds;
}

TEST(Dataset, MeanStepCurve) {
  Dataset ds;
  ds.spec = {"AMG", 128};
  for (double base : {1.0, 3.0}) {
    RunRecord r;
    r.step_times = {base, base + 1.0};
    r.step_counters.assign(2, mon::CounterVec{});
    r.step_ldms.assign(2, mon::LdmsFeatures{});
    ds.runs.push_back(r);
  }
  const auto curve = ds.mean_step_curve();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0], 2.0);
  EXPECT_DOUBLE_EQ(curve[1], 3.0);
}

TEST(Dataset, MeanCounterCurve) {
  Dataset ds;
  ds.spec = {"AMG", 128};
  RunRecord r;
  r.step_times = {1.0};
  mon::CounterVec cv{};
  cv[size_t(mon::Counter::RT_RB_STL)] = 42.0;
  r.step_counters = {cv};
  r.step_ldms.assign(1, mon::LdmsFeatures{});
  ds.runs.push_back(r);
  const auto curve = ds.mean_counter_curve(mon::Counter::RT_RB_STL);
  EXPECT_DOUBLE_EQ(curve[0], 42.0);
}

TEST(Dataset, CsvRoundTripPreservesEverything) {
  const Dataset ds = make_synthetic(3, 4, 77);
  const Dataset back = dataset_from_csv(dataset_to_csv(ds));
  ASSERT_EQ(back.runs.size(), ds.runs.size());
  EXPECT_EQ(back.spec.app, "MILC");
  EXPECT_EQ(back.spec.nodes, 128);
  for (std::size_t r = 0; r < ds.runs.size(); ++r) {
    const RunRecord& a = ds.runs[r];
    const RunRecord& b = back.runs[r];
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.num_routers, b.num_routers);
    EXPECT_EQ(a.num_groups, b.num_groups);
    EXPECT_EQ(a.neighborhood_users, b.neighborhood_users);
    ASSERT_EQ(a.step_times.size(), b.step_times.size());
    for (std::size_t t = 0; t < a.step_times.size(); ++t) {
      EXPECT_NEAR(a.step_times[t], b.step_times[t], 1e-9 * a.step_times[t]);
      for (int c = 0; c < mon::kNumCounters; ++c)
        EXPECT_NEAR(a.step_counters[t][std::size_t(c)], b.step_counters[t][std::size_t(c)],
                    1.0);
      for (int i = 0; i < mon::kNumIoFeatures; ++i)
        EXPECT_NEAR(a.step_ldms[t].io[std::size_t(i)], b.step_ldms[t].io[std::size_t(i)],
                    1.0);
    }
    EXPECT_NEAR(a.profile.compute_s, b.profile.compute_s, 1e-9);
    EXPECT_NEAR(a.profile.routine(mon::MpiRoutine::Wait),
                b.profile.routine(mon::MpiRoutine::Wait), 1e-9);
  }
}

TEST(Dataset, FileRoundTrip) {
  const Dataset ds = make_synthetic(2, 3, 5);
  const std::string path = scratch("dfv_dataset_test.csv");
  ASSERT_TRUE(save_dataset(ds, path));
  const Dataset back = load_dataset(path);
  EXPECT_EQ(back.runs.size(), 2u);
  EXPECT_EQ(back.steps_per_run(), 3);
  EXPECT_THROW((void)load_dataset("/nonexistent/x.csv"), ContractError);
}

TEST(Dataset, TotalTimes) {
  const Dataset ds = make_synthetic(2, 3, 6);
  const auto totals = ds.total_times();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_NEAR(totals[0], ds.runs[0].total_time_s(), 1e-12);
}

// Split CSV text into lines (keeps it easy to mutate one row).
std::vector<std::string> csv_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

TEST(Dataset, MalformedCsvRejected) {
  const std::string good = dataset_to_csv(make_synthetic(2, 3, 9));
  ASSERT_NO_THROW((void)dataset_from_csv(good));
  std::vector<std::string> lines = csv_lines(good);
  ASSERT_GE(lines.size(), 3u);

  // Wrong column count: a data row missing its trailing field.
  {
    auto bad = lines;
    bad[1] = bad[1].substr(0, bad[1].rfind(','));
    EXPECT_THROW((void)dataset_from_csv(join_lines(bad)), ContractError);
  }
  // Non-numeric garbage in a numeric field (job_id).
  {
    auto bad = lines;
    std::size_t f = 0;
    for (int skip = 0; skip < 3; ++skip) f = bad[1].find(',', f) + 1;
    bad[1].replace(f, bad[1].find(',', f) - f, "oops");
    EXPECT_THROW((void)dataset_from_csv(join_lines(bad)), ContractError);
  }
  // Truncated final line (partial write / lost tail).
  {
    std::string cut = good.substr(0, good.size() - 25);
    EXPECT_THROW((void)dataset_from_csv(cut), ContractError);
  }
  // Replace field `col` of data row `row` (1-based) and expect a rejection
  // that names the row.
  const auto expect_row_rejected = [&](std::size_t row, int col, const std::string& value) {
    auto bad = lines;
    std::size_t b = 0;
    for (int skip = 0; skip < col; ++skip) b = bad[row].find(',', b) + 1;
    bad[row].replace(b, bad[row].find(',', b) - b, value);
    try {
      (void)dataset_from_csv(join_lines(bad));
      ADD_FAILURE() << "accepted field " << col << " = " << value;
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("row " + std::to_string(row)), std::string::npos)
          << e.what();
    }
  };
  expect_row_rejected(2, 1, "256");   // nodes differs from the first row
  expect_row_rejected(4, 0, "AMG");   // app differs from the first row
  expect_row_rejected(4, 2, "7");     // run index skips (0 then 7)
  expect_row_rejected(5, 2, "0");     // run index goes back
  expect_row_rejected(1, 2, "1");     // the first run is not run 0
  // Integers outside their type, never wrapped into it.
  expect_row_rejected(1, 3, "4294967297");  // job_id
  expect_row_rejected(1, 3, "-2147483649");
  expect_row_rejected(4, 8, "99999999999999999999");  // num_groups
}

TEST(Dataset, DegradedTelemetryRoundTripsUnderKeep) {
  Dataset ds = make_synthetic(2, 4, 13);
  // Hand-degrade: one dropped step with NaN telemetry, one lost profile.
  auto& run = ds.runs[0];
  run.step_quality.assign(4, faults::kQualityOk);
  run.step_quality[2] = faults::kQualityDropped;
  run.step_counters[2].fill(std::numeric_limits<double>::quiet_NaN());
  run.step_ldms[2].io.fill(std::numeric_limits<double>::quiet_NaN());
  ds.runs[1].profile_missing = true;

  // Strict (the default) refuses degraded text; Keep passes it through.
  const std::string text = dataset_to_csv(ds);
  EXPECT_THROW((void)dataset_from_csv(text), ContractError);
  const Dataset back = dataset_from_csv(text, faults::RepairPolicy::Keep);
  ASSERT_EQ(back.runs.size(), 2u);
  EXPECT_EQ(back.runs[0].quality(2), faults::kQualityDropped);
  EXPECT_FALSE(back.runs[0].step_usable(2));
  EXPECT_TRUE(std::isnan(back.runs[0].step_counters[2][0]));
  EXPECT_TRUE(back.runs[1].profile_missing);
  // Repair on load imputes the gap instead.
  const Dataset fixed = dataset_from_csv(text, faults::RepairPolicy::Repair);
  EXPECT_TRUE(fixed.runs[0].step_usable(2));
  EXPECT_TRUE(std::isfinite(fixed.runs[0].step_counters[2][0]));
}

TEST(Dataset, RaggedTelemetryRejectedByBothWriters) {
  const std::string dir = scratch("dfv_ragged_store");
  const auto expect_rejected = [&](const Dataset& ds, const char* what) {
    EXPECT_THROW((void)dataset_to_csv(ds), ContractError) << what;
    CampaignResult result;
    result.datasets.push_back(ds);
    EXPECT_FALSE(save_campaign_store(result, dir)) << what;
  };
  Dataset short_ldms = make_synthetic(2, 4, 21);
  short_ldms.runs[1].step_ldms.pop_back();
  expect_rejected(short_ldms, "short step_ldms");
  Dataset short_quality = make_synthetic(2, 4, 21);
  short_quality.runs[0].step_quality.assign(3, faults::kQualityOk);
  expect_rejected(short_quality, "short step_quality");
}

TEST(Dataset, EmptyDatasetHandled) {
  Dataset ds;
  EXPECT_EQ(ds.steps_per_run(), 0);
  EXPECT_TRUE(ds.mean_step_curve().empty());
  const Dataset back = dataset_from_csv(dataset_to_csv(ds));
  EXPECT_TRUE(back.runs.empty());
}

}  // namespace
}  // namespace dfv::sim
