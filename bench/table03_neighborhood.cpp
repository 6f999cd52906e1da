// Table III: sets of users highly correlated (via mutual information)
// with performance (non-)optimality, per dataset. The paper found users
// 2, 8 and 11 in four lists, user 9 in three; user 8 is the campaign
// account itself. Ground truth in the simulation: users {2, 8, 9, 11}
// are the built-in aggressors.
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>

#include "analysis/neighborhood.hpp"
#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "sched/workload.hpp"

int main() {
  using namespace dfv;
  bench::print_header("Table III",
                      "Users highly correlated with performance optimality (tau = 1)");
  const auto campaign = bench::load_campaign();

  std::map<int, int> list_count;
  Table t({"Application", "No. of nodes", "Highly correlated users"});
  for (const auto& spec : apps::paper_datasets()) {
    const auto res =
        analysis::analyze_neighborhood(campaign.dataset(spec.app, spec.nodes), /*tau=*/1.0);
    const auto blamed = analysis::blamed_users(res, /*top_k=*/9, /*min_mi=*/3e-3);
    std::ostringstream cell;
    cell << "User-[";
    for (std::size_t i = 0; i < blamed.size(); ++i) {
      if (i) cell << ", ";
      cell << blamed[i];
      ++list_count[blamed[i]];
    }
    cell << "]";
    t.add_row({spec.app, std::to_string(spec.nodes), cell.str()});
  }
  std::cout << t.str();

  // Cross-list summary: the paper's headline is users appearing in many
  // lists; compare against the simulation's ground-truth aggressors.
  std::vector<std::pair<int, int>> ranked(list_count.begin(), list_count.end());
  std::sort(ranked.begin(), ranked.end(),
            [](auto a, auto b) { return a.second > b.second; });
  std::cout << "\nUsers appearing in multiple lists:\n";
  for (const auto& [user, n] : ranked)
    if (n >= 2) std::cout << "  User-" << user << ": " << n << " lists\n";

  const auto truth = sched::ground_truth_aggressors();
  int recovered = 0;
  for (int u : truth)
    if (list_count.count(u) && list_count[u] >= 2) ++recovered;
  std::cout << "\nGround-truth aggressors (simulation): {2, 8, 9, 11}; recovered in\n"
            << ">=2 lists: " << recovered << "/" << truth.size()
            << ". Paper: users 2/8/11 in four lists, user 9 in three; user 8 is\n"
               "the account running these experiments (self-interference).\n";
  return 0;
}
