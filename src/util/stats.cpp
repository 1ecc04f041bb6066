#include "util/stats.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace prlc {

double quantile(std::span<const double> sample, double q) {
  PRLC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order must be in [0,1]");
  // NaNs have no order; sorting them in would poison the interpolation
  // (std::sort with NaN comparisons is undefined), so drop them first.
  std::vector<double> sorted;
  sorted.reserve(sample.size());
  for (double x : sample) {
    if (!std::isnan(x)) sorted.push_back(x);
  }
  PRLC_REQUIRE(!sorted.empty(), "quantile of a sample with no non-NaN values");
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

}  // namespace prlc
