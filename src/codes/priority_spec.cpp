#include "codes/priority_spec.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace prlc::codes {

PrioritySpec::PrioritySpec(std::vector<std::size_t> level_sizes)
    : sizes_(std::move(level_sizes)) {
  PRLC_REQUIRE(!sizes_.empty(), "a priority spec needs at least one level");
  prefix_.reserve(sizes_.size());
  std::size_t acc = 0;
  for (std::size_t a : sizes_) {
    PRLC_REQUIRE(a > 0, "every priority level must contain at least one block");
    acc += a;
    prefix_.push_back(acc);
  }
}

PrioritySpec PrioritySpec::uniform(std::size_t levels, std::size_t per_level) {
  PRLC_REQUIRE(levels > 0, "need at least one level");
  PRLC_REQUIRE(per_level > 0, "need at least one block per level");
  return PrioritySpec(std::vector<std::size_t>(levels, per_level));
}

std::size_t PrioritySpec::level_of_block(std::size_t j) const {
  PRLC_REQUIRE(j < total(), "source block index out of range");
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), j);
  return static_cast<std::size_t>(it - prefix_.begin());
}

std::size_t PrioritySpec::levels_covered_by_prefix(std::size_t blocks) const {
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), blocks);
  // it points at the first prefix sum strictly greater than `blocks`;
  // every level before it is fully covered.
  return static_cast<std::size_t>(it - prefix_.begin());
}

std::pair<std::size_t, std::size_t> PrioritySpec::support(Scheme scheme,
                                                          std::size_t level) const {
  PRLC_REQUIRE(level < levels(), "level out of range");
  switch (scheme) {
    case Scheme::kRlc:
      return {0, total()};
    case Scheme::kSlc:
      return {level_begin(level), level_end(level)};
    case Scheme::kPlc:
      return {0, level_end(level)};
  }
  PRLC_ASSERT(false, "unknown scheme");
}

std::vector<std::size_t> apportion_largest_remainder(std::size_t total,
                                                     std::span<const double> weights) {
  PRLC_REQUIRE(!weights.empty(), "apportionment needs at least one weight");
  double weight_sum = 0;
  for (double w : weights) {
    PRLC_REQUIRE(w >= 0, "weights must be nonnegative");
    weight_sum += w;
  }
  PRLC_REQUIRE(weight_sum > 0, "weights must not all be zero");

  std::vector<std::size_t> out(weights.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;  // (-remainder, index)
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / weight_sum;
    out[i] = static_cast<std::size_t>(exact);
    assigned += out[i];
    remainders.emplace_back(-(exact - std::floor(exact)), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t j = 0; assigned < total; ++j) {
    ++out[remainders[j % remainders.size()].second];
    ++assigned;
  }
  return out;
}

std::size_t sparse_row_weight(double factor, std::size_t width) {
  PRLC_ASSERT(width > 0, "empty coding support");
  const double target = std::ceil(factor * std::log(std::max<double>(2.0, width)));
  return std::clamp<std::size_t>(static_cast<std::size_t>(target), 1, width);
}

std::optional<PrioritySpec> try_spec_from_string(std::string_view text) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view field = text.substr(pos, end - pos);
    if (field.empty()) return std::nullopt;
    std::size_t value = 0;
    for (char c : field) {
      if (c < '0' || c > '9') return std::nullopt;
      const std::size_t digit = static_cast<std::size_t>(c - '0');
      if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
        return std::nullopt;
      }
      value = value * 10 + digit;
    }
    if (value == 0) return std::nullopt;
    sizes.push_back(value);
    pos = end + 1;
  }
  return PrioritySpec(std::move(sizes));
}

PrioritySpec spec_from_string(std::string_view text) {
  auto spec = try_spec_from_string(text);
  PRLC_REQUIRE(spec.has_value(),
               "malformed level-size list: " + std::string(text));
  return *std::move(spec);
}

PriorityDistribution::PriorityDistribution(std::vector<double> p)
    : p_(std::move(p)), alias_((validate(p_), std::span<const double>(p_))) {}

void PriorityDistribution::validate(std::vector<double>& p) {
  PRLC_REQUIRE(!p.empty(), "a priority distribution needs at least one level");
  double sum = 0.0;
  for (double v : p) {
    PRLC_REQUIRE(v >= -1e-12, "priority distribution entries must be nonnegative");
    if (v < 0) v = 0;
    sum += v;
  }
  PRLC_REQUIRE(std::abs(sum - 1.0) <= 1e-9, "priority distribution must sum to 1");
  for (double& v : p) v /= sum;
}

PriorityDistribution PriorityDistribution::uniform(std::size_t levels) {
  PRLC_REQUIRE(levels > 0, "need at least one level");
  return PriorityDistribution(std::vector<double>(levels, 1.0 / static_cast<double>(levels)));
}

double PriorityDistribution::range_sum(std::size_t first, std::size_t last) const {
  PRLC_REQUIRE(first <= last && last < p_.size(), "range out of bounds");
  double s = 0.0;
  for (std::size_t i = first; i <= last; ++i) s += p_[i];
  return s;
}

}  // namespace prlc::codes
