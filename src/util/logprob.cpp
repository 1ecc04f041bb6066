#include "util/logprob.h"

#include <cmath>
#include <limits>

namespace prlc {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

void LogFactorialTable::grow(std::size_t n_max) {
  std::size_t old = table_.size();
  if (old == 0) {
    table_.push_back(0.0);  // ln(0!) = 0
    old = 1;
  }
  if (n_max + 1 <= old) return;
  table_.resize(n_max + 1);
  for (std::size_t k = old; k <= n_max; ++k) {
    table_[k] = table_[k - 1] + std::log(static_cast<double>(k));
  }
}

double LogFactorialTable::log_binomial(std::size_t n, std::size_t k) {
  if (k > n) return kNegInf;
  return (*this)(n) - (*this)(k) - (*this)(n - k);
}

double LogFactorialTable::binomial_pmf(std::size_t n, double p, std::size_t k) {
  PRLC_REQUIRE(p >= 0.0 && p <= 1.0, "binomial probability must be in [0,1]");
  if (k > n) return 0.0;
  if (p == 0.0) return k == 0 ? 1.0 : 0.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = log_binomial(n, k) + static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double LogFactorialTable::binomial_tail_ge(std::size_t n, double p, std::size_t k) {
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  // Sum the smaller side for accuracy.
  double tail = 0.0;
  if (k > n / 2) {
    for (std::size_t j = k; j <= n; ++j) tail += binomial_pmf(n, p, j);
  } else {
    double head = 0.0;
    for (std::size_t j = 0; j < k; ++j) head += binomial_pmf(n, p, j);
    tail = 1.0 - head;
  }
  if (tail < 0.0) tail = 0.0;
  if (tail > 1.0) tail = 1.0;
  return tail;
}

void normalize(std::span<double> weights) {
  double total = 0.0;
  for (double w : weights) {
    PRLC_REQUIRE(w >= 0.0, "normalize() requires nonnegative weights");
    total += w;
  }
  PRLC_REQUIRE(total > 0.0, "normalize() requires a positive sum");
  for (double& w : weights) w /= total;
}

}  // namespace prlc
