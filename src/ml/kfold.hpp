// Shuffled k-fold cross-validation splitter (the paper uses 10-fold CV
// for deviation prediction and CV splits for forecasting MAPE).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace dfv::ml {

struct FoldSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Produce `k` shuffled folds over `n` samples. Every sample appears in
/// exactly one test set; fold sizes differ by at most one.
[[nodiscard]] std::vector<FoldSplit> kfold(std::size_t n, std::size_t k, Rng& rng);

/// Group-aware folds: samples sharing a group id (e.g. the run a step
/// belongs to) always land in the same fold, preventing leakage between
/// time steps of one run.
[[nodiscard]] std::vector<FoldSplit> group_kfold(std::span<const std::size_t> groups,
                                                 std::size_t k, Rng& rng);

/// Run `fn(fold_index)` once per fold on the global dfv::exec pool, one
/// task per fold. Fold bodies must write only fold-private state (e.g. a
/// partial-result slot indexed by fold); combine partials serially in fold
/// order afterwards so CV results are identical for any thread count.
/// Seed any per-fold model from the fold index (exec::substream_seed), not
/// from a shared mutable RNG.
void run_folds(std::size_t k, const std::function<void(std::size_t)>& fn);

}  // namespace dfv::ml
