// Neighborhood analysis (§IV-A, §V-A, Table III): quantify, via mutual
// information, the dependency between the users running concurrently
// with each run and the run's optimality (t_r < tau * t_mean).
#pragma once

#include <vector>

#include "sim/dataset.hpp"

namespace dfv::analysis {

struct UserScore {
  int user_id = 0;
  double mi = 0.0;           ///< mutual information with optimality [nats]
  double presence = 0.0;     ///< fraction of runs the user overlapped
  double optimal_when_present = 0.0;  ///< P(optimal | user present)
  double optimal_overall = 0.0;       ///< P(optimal)

  /// True when the user's presence is associated with *worse* outcomes
  /// (the direction Table III reports).
  [[nodiscard]] bool negatively_correlated() const noexcept {
    return optimal_when_present < optimal_overall;
  }
};

struct NeighborhoodResult {
  double tau = 1.0;
  double mean_total_time = 0.0;
  double optimal_fraction = 0.0;
  std::vector<UserScore> ranked;  ///< all users, by MI descending
};

/// The tau-independent part of the analysis for one dataset, built once:
/// the run totals and their mean, and for each user (ascending id) the
/// sorted, deduplicated runs the user overlapped. A query is O(runs +
/// presences): it forms the optimality vector, counts each user's
/// present-and-optimal runs and takes the MI from the 2x2 counts, bit for
/// bit what a per-user 0/1 column through ml::mutual_information gives.
class NeighborhoodIndex {
 public:
  /// Needs at least two runs.
  explicit NeighborhoodIndex(const sim::Dataset& ds);

  /// The analysis at threshold `tau` (finite and positive): every user,
  /// ranked by MI descending.
  [[nodiscard]] NeighborhoodResult query(double tau) const;

 private:
  std::vector<double> totals_;      ///< per-run total time
  double mean_total_time_ = 0.0;
  std::vector<double> acc_;         ///< ml::count_probabilities(runs)
  std::vector<int> users_;          ///< ascending user ids
  std::vector<std::size_t> first_;  ///< users_[i]'s runs: runs_[first_[i], first_[i+1])
  std::vector<std::size_t> runs_;
};

/// Run the analysis on one dataset: build the index, then one query.
[[nodiscard]] NeighborhoodResult analyze_neighborhood(const sim::Dataset& ds,
                                                      double tau = 1.0);

/// Table III row: the top-`top_k` users by MI that are negatively
/// correlated with optimality and clear `min_mi`; sorted by user id.
[[nodiscard]] std::vector<int> blamed_users(const NeighborhoodResult& r,
                                            std::size_t top_k = 9, double min_mi = 1e-3);

}  // namespace dfv::analysis
