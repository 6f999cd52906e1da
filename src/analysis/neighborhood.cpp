#include "analysis/neighborhood.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "ml/mutual_info.hpp"

namespace dfv::analysis {

NeighborhoodIndex::NeighborhoodIndex(const sim::Dataset& ds) : totals_(ds.total_times()) {
  const std::size_t n = totals_.size();
  DFV_CHECK_MSG(n >= 2, "neighborhood analysis needs at least two runs");
  mean_total_time_ = stats::mean(totals_);
  acc_ = ml::count_probabilities(n);

  // (user, run) pairs sorted and deduplicated: each user's runs ascend,
  // and a user listed twice in one run counts once.
  std::vector<std::pair<int, std::size_t>> presence;
  for (std::size_t r = 0; r < n; ++r)
    for (int u : ds.runs[r].neighborhood_users) presence.emplace_back(u, r);
  std::sort(presence.begin(), presence.end());
  presence.erase(std::unique(presence.begin(), presence.end()), presence.end());

  runs_.reserve(presence.size());
  for (const auto& [user, run] : presence) {
    if (users_.empty() || users_.back() != user) {
      users_.push_back(user);
      first_.push_back(runs_.size());
    }
    runs_.push_back(run);
  }
  first_.push_back(runs_.size());
}

NeighborhoodResult NeighborhoodIndex::query(double tau) const {
  DFV_CHECK_MSG(std::isfinite(tau) && tau > 0.0,
                "optimality threshold tau must be finite and positive, got " << tau);
  NeighborhoodResult result;
  result.tau = tau;
  result.mean_total_time = mean_total_time_;

  // Optimality vector: t_r < tau * mean(t).
  const std::size_t n = totals_.size();
  std::vector<unsigned char> optimal(n);
  std::size_t n_opt = 0;
  for (std::size_t r = 0; r < n; ++r) {
    optimal[r] = totals_[r] < tau * mean_total_time_ ? 1 : 0;
    n_opt += optimal[r];
  }
  result.optimal_fraction = double(n_opt) / double(n);

  result.ranked.reserve(users_.size());
  for (std::size_t i = 0; i < users_.size(); ++i) {
    const std::size_t np = first_[i + 1] - first_[i];
    std::size_t np_opt = 0;
    for (std::size_t k = first_[i]; k < first_[i + 1]; ++k) np_opt += optimal[runs_[k]];
    // joint[present][optimal]
    const ml::Counts2x2 joint = {{{n - np - (n_opt - np_opt), n_opt - np_opt},
                                  {np - np_opt, np_opt}}};
    UserScore s;
    s.user_id = users_[i];
    s.mi = ml::mutual_information(joint, acc_);
    s.presence = double(np) / double(n);
    s.optimal_when_present = double(np_opt) / double(np);
    s.optimal_overall = result.optimal_fraction;
    result.ranked.push_back(s);
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const UserScore& a, const UserScore& b) { return a.mi > b.mi; });
  return result;
}

NeighborhoodResult analyze_neighborhood(const sim::Dataset& ds, double tau) {
  return NeighborhoodIndex(ds).query(tau);
}

std::vector<int> blamed_users(const NeighborhoodResult& r, std::size_t top_k,
                              double min_mi) {
  DFV_CHECK_MSG(min_mi >= 0.0, "mutual information is non-negative; min_mi must be too");
  std::vector<int> users;
  for (const UserScore& s : r.ranked) {
    if (users.size() >= top_k) break;
    if (s.mi < min_mi) break;
    if (!s.negatively_correlated()) continue;
    users.push_back(s.user_id);
  }
  std::sort(users.begin(), users.end());
  return users;
}

}  // namespace dfv::analysis
