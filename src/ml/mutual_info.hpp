// Mutual information between discrete random variables (Eq. 1 of the
// paper), used by the neighborhood analysis to quantify the dependency
// between user co-occurrence and run optimality.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace dfv::ml {

/// MI in nats between two samples of non-negative small-integer labels
/// (joint distribution estimated from co-occurrence counts).
[[nodiscard]] double mutual_information(std::span<const int> xs, std::span<const int> ys);

/// Convenience for binary vectors stored as 0/1 doubles.
[[nodiscard]] double mutual_information_binary(std::span<const double> xs, std::span<const double> ys);

/// Entropy in nats of a discrete sample.
[[nodiscard]] double entropy(std::span<const int> xs);

/// The probability of a label seen c times in n samples, for c = 0..n,
/// summed the way mutual_information sums it: acc[0] = 0 and
/// acc[c] = acc[c-1] + 1/n, one sample at a time.
[[nodiscard]] std::vector<double> count_probabilities(std::size_t n);

/// 2x2 contingency counts of two binary variables: joint[x][y] samples
/// have X = x and Y = y.
using Counts2x2 = std::array<std::array<std::size_t, 2>, 2>;

/// MI in nats of two binary variables from their contingency counts,
/// with `acc` = count_probabilities(n) for n = the total count. Equals
/// mutual_information over any 0/1 columns with these counts bit for bit:
/// every probability is the same repeated sum, and the nonzero cells are
/// added in the same (x, y) order.
[[nodiscard]] double mutual_information(const Counts2x2& joint, std::span<const double> acc);

}  // namespace dfv::ml
