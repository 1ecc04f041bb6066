#include "codes/growth_codes.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace prlc::codes {

GrowthEncoder::GrowthEncoder(std::size_t total_blocks) : total_blocks_(total_blocks) {
  PRLC_REQUIRE(total_blocks > 0, "need at least one source block");
}

std::size_t GrowthEncoder::degree_for(std::size_t recovered) const {
  PRLC_REQUIRE(recovered <= total_blocks_, "recovered count exceeds N");
  if (recovered >= total_blocks_) return total_blocks_;
  // Kamra et al.'s switch points: degree d is optimal while
  // (d-1)/d <= r/N < d/(d+1), i.e. d = floor(N / (N - r)) — degree 1
  // until half the data is recovered, then growing.
  const double n = static_cast<double>(total_blocks_);
  const double d = std::floor(n / (n - static_cast<double>(recovered)));
  return std::clamp<std::size_t>(static_cast<std::size_t>(d), 1, total_blocks_);
}

GrowthSymbol GrowthEncoder::encode(std::size_t recovered, Rng& rng) const {
  return GrowthSymbol{rng.sample_without_replacement(total_blocks_, degree_for(recovered))};
}

}  // namespace prlc::codes
