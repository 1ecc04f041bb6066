// Numerically stable combinatorial probability primitives.
//
// The analysis engine (Sec. 3.3 of the paper) works with multinomial tail
// probabilities at block counts in the thousands; naive factorials overflow
// long before that. Everything here is computed in log space from a cached
// log-factorial table.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/check.h"

namespace prlc {

/// Cached table of ln(k!) for k = 0..n_max, growable on demand.
/// Lookup is O(1); growth amortizes. Not thread-safe by design: analysis
/// code owns its own table (C++CG CP.2 — keep sharing explicit).
class LogFactorialTable {
 public:
  explicit LogFactorialTable(std::size_t n_max = 1024) { grow(n_max); }

  /// ln(k!), extending the table as needed.
  double operator()(std::size_t k) {
    if (k >= table_.size()) grow(k);
    return table_[k];
  }

  /// ln C(n, k); -inf when k > n.
  double log_binomial(std::size_t n, std::size_t k);

  /// Binomial pmf Pr(Bin(n, p) = k); exact 0/1 edge cases handled.
  double binomial_pmf(std::size_t n, double p, std::size_t k);

  /// Upper-tail Pr(Bin(n, p) >= k).
  double binomial_tail_ge(std::size_t n, double p, std::size_t k);

 private:
  void grow(std::size_t n_max);
  std::vector<double> table_;
};

/// Normalize `weights` in place so they sum to 1. Requires a positive sum.
void normalize(std::span<double> weights);

}  // namespace prlc
