#include "analysis/neighborhood.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "common/stats.hpp"
#include "ml/mutual_info.hpp"
#include "sim/campaign.hpp"
#include "synthetic.hpp"

namespace dfv::analysis {
namespace {

TEST(Neighborhood, RecoversPlantedAggressor) {
  testutil::SyntheticSpec spec;
  spec.runs = 120;
  spec.aggressor_effect = 2.5;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const NeighborhoodResult res = analyze_neighborhood(ds);

  ASSERT_FALSE(res.ranked.empty());
  EXPECT_EQ(res.ranked.front().user_id, spec.aggressor_user);
  EXPECT_TRUE(res.ranked.front().negatively_correlated());
  EXPECT_GT(res.ranked.front().mi, 0.05);
}

TEST(Neighborhood, BystandersScoreLow) {
  testutil::SyntheticSpec spec;
  spec.runs = 150;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const NeighborhoodResult res = analyze_neighborhood(ds);
  double aggressor_mi = 0.0, max_bystander_mi = 0.0;
  for (const auto& s : res.ranked) {
    if (s.user_id == spec.aggressor_user)
      aggressor_mi = s.mi;
    else
      max_bystander_mi = std::max(max_bystander_mi, s.mi);
  }
  EXPECT_GT(aggressor_mi, 2.0 * max_bystander_mi);
}

TEST(Neighborhood, BlamedUsersFiltersDirectionAndCount) {
  testutil::SyntheticSpec spec;
  spec.runs = 120;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const NeighborhoodResult res = analyze_neighborhood(ds);
  const auto blamed = blamed_users(res, /*top_k=*/3, /*min_mi=*/1e-3);
  EXPECT_LE(blamed.size(), 3u);
  EXPECT_NE(std::find(blamed.begin(), blamed.end(), spec.aggressor_user), blamed.end());
  EXPECT_TRUE(std::is_sorted(blamed.begin(), blamed.end()));
}

TEST(Neighborhood, OptimalityThresholdTau) {
  testutil::SyntheticSpec spec;
  spec.runs = 80;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const NeighborhoodResult strict = analyze_neighborhood(ds, 0.8);
  const NeighborhoodResult loose = analyze_neighborhood(ds, 1.3);
  EXPECT_LT(strict.optimal_fraction, loose.optimal_fraction);
}

TEST(Neighborhood, StatsAreConsistent) {
  testutil::SyntheticSpec spec;
  spec.runs = 60;
  const sim::Dataset ds = testutil::make_planted_dataset(spec);
  const NeighborhoodResult res = analyze_neighborhood(ds);
  EXPECT_GT(res.mean_total_time, 0.0);
  EXPECT_GT(res.optimal_fraction, 0.0);
  EXPECT_LT(res.optimal_fraction, 1.0);
  for (const auto& s : res.ranked) {
    EXPECT_GE(s.mi, 0.0);
    EXPECT_GE(s.presence, 0.0);
    EXPECT_LE(s.presence, 1.0);
  }
  // Ranked by MI descending.
  for (std::size_t i = 1; i < res.ranked.size(); ++i)
    EXPECT_GE(res.ranked[i - 1].mi, res.ranked[i].mi);
}

TEST(Neighborhood, RequiresRuns) {
  sim::Dataset empty;
  EXPECT_THROW((void)analyze_neighborhood(empty), ContractError);
}

TEST(Neighborhood, RejectsMeaninglessTau) {
  const sim::Dataset ds = testutil::make_planted_dataset({});
  const NeighborhoodIndex index(ds);
  for (const double tau : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)analyze_neighborhood(ds, tau), ContractError) << tau;
    EXPECT_THROW((void)index.query(tau), ContractError) << tau;
  }
}

/// The per-user-column computation the index replaced: one 0/1 presence
/// column per user (std::map, ascending id) through ml::mutual_information.
NeighborhoodResult column_reference(const sim::Dataset& ds, double tau) {
  NeighborhoodResult result;
  result.tau = tau;
  const std::size_t n = ds.runs.size();
  const std::vector<double> totals = ds.total_times();
  result.mean_total_time = stats::mean(totals);
  std::vector<int> optimal(n);
  std::size_t n_opt = 0;
  for (std::size_t r = 0; r < n; ++r) {
    optimal[r] = totals[r] < tau * result.mean_total_time ? 1 : 0;
    n_opt += std::size_t(optimal[r]);
  }
  result.optimal_fraction = double(n_opt) / double(n);
  std::map<int, std::vector<int>> presence;
  for (std::size_t r = 0; r < n; ++r)
    for (int u : ds.runs[r].neighborhood_users)
      presence.emplace(u, std::vector<int>(n, 0)).first->second[r] = 1;
  for (auto& [user, column] : presence) {
    UserScore s;
    s.user_id = user;
    s.mi = ml::mutual_information(column, optimal);
    std::size_t np = 0, np_opt = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (!column[r]) continue;
      ++np;
      np_opt += std::size_t(optimal[r]);
    }
    s.presence = double(np) / double(n);
    s.optimal_when_present = np > 0 ? double(np_opt) / double(np) : 0.0;
    s.optimal_overall = result.optimal_fraction;
    result.ranked.push_back(s);
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const UserScore& a, const UserScore& b) { return a.mi > b.mi; });
  return result;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_bit_identical(const NeighborhoodResult& got, const NeighborhoodResult& want,
                          const std::string& what) {
  EXPECT_TRUE(same_bits(got.tau, want.tau)) << what;
  EXPECT_TRUE(same_bits(got.mean_total_time, want.mean_total_time)) << what;
  EXPECT_TRUE(same_bits(got.optimal_fraction, want.optimal_fraction)) << what;
  ASSERT_EQ(got.ranked.size(), want.ranked.size()) << what;
  for (std::size_t i = 0; i < got.ranked.size(); ++i) {
    const UserScore& g = got.ranked[i];
    const UserScore& w = want.ranked[i];
    EXPECT_EQ(g.user_id, w.user_id) << what << " rank " << i;
    EXPECT_TRUE(same_bits(g.mi, w.mi)) << what << " rank " << i;
    EXPECT_TRUE(same_bits(g.presence, w.presence)) << what << " rank " << i;
    EXPECT_TRUE(same_bits(g.optimal_when_present, w.optimal_when_present))
        << what << " rank " << i;
    EXPECT_TRUE(same_bits(g.optimal_overall, w.optimal_overall)) << what << " rank " << i;
  }
}

TEST(Neighborhood, IndexMatchesColumnReference) {
  const double taus[] = {0.5, 0.9, 0.95, 1.0, 1.05, 1.1, 2.0};
  sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
  cfg.days = 8;
  const sim::CampaignResult campaign = sim::run_campaign(cfg);
  for (const sim::Dataset& ds : campaign.datasets) {
    ASSERT_GE(ds.num_runs(), 2u) << ds.spec.label();
    const NeighborhoodIndex index(ds);
    for (const double tau : taus) {
      const std::string what = ds.spec.label() + " tau " + std::to_string(tau);
      expect_bit_identical(index.query(tau), column_reference(ds, tau), what);
      expect_bit_identical(analyze_neighborhood(ds, tau), column_reference(ds, tau), what);
    }
  }

  // Synthetic edges: a user listed twice in one run, a user present in
  // every run, and a tau at which every run is optimal.
  testutil::SyntheticSpec spec;
  spec.runs = 37;
  sim::Dataset ds = testutil::make_planted_dataset(spec);
  for (sim::RunRecord& run : ds.runs) run.neighborhood_users.push_back(99);
  ds.runs[3].neighborhood_users.push_back(spec.aggressor_user);
  ds.runs[3].neighborhood_users.push_back(spec.aggressor_user);
  ds.runs[5].neighborhood_users.insert(ds.runs[5].neighborhood_users.begin(), 7);
  ds.runs[5].neighborhood_users.push_back(7);
  const NeighborhoodIndex index(ds);
  for (const double tau : {0.5, 1.0, 2.0, 100.0}) {
    const NeighborhoodResult got = index.query(tau);
    expect_bit_identical(got, column_reference(ds, tau), "synthetic tau " + std::to_string(tau));
    if (tau == 100.0) {
      EXPECT_EQ(got.optimal_fraction, 1.0);
    }
  }
  const NeighborhoodResult res = index.query(1.0);
  const auto all = std::find_if(res.ranked.begin(), res.ranked.end(),
                                [](const UserScore& s) { return s.user_id == 99; });
  ASSERT_NE(all, res.ranked.end());
  EXPECT_EQ(all->presence, 1.0);
  EXPECT_NEAR(all->mi, 0.0, 1e-12);  // the summed probabilities miss 1 by rounding
}

}  // namespace
}  // namespace dfv::analysis
