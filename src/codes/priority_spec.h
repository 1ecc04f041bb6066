// Priority structure of the source data (Sec. 2 of the paper).
//
// N source blocks are partitioned into n priority levels with sizes
// a_1..a_n (descending importance). PrioritySpec owns that structure and
// the derived prefix sums b_i = a_1 + ... + a_i; PriorityDistribution is
// the per-level fraction p_i of coded blocks (Sec. 3.3), i.e. the knob the
// design framework of Sec. 3.4 tunes.
//
// Everything here is 0-indexed: level i in code corresponds to level i+1
// in the paper's notation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "codes/scheme.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::codes {

class PrioritySpec {
 public:
  /// `level_sizes[i]` = a_{i+1} > 0 (number of source blocks in level i).
  explicit PrioritySpec(std::vector<std::size_t> level_sizes);

  /// Convenience: `levels` equal levels of `per_level` blocks each.
  static PrioritySpec uniform(std::size_t levels, std::size_t per_level);

  /// n — the number of priority levels.
  std::size_t levels() const { return sizes_.size(); }

  /// a_{i+1} — source blocks in level i.
  std::size_t level_size(std::size_t i) const {
    PRLC_REQUIRE(i < sizes_.size(), "level index out of range");
    return sizes_[i];
  }

  /// b_{i+1} — total source blocks in levels 0..i.
  std::size_t prefix_size(std::size_t i) const {
    PRLC_REQUIRE(i < prefix_.size(), "level index out of range");
    return prefix_[i];
  }

  /// First source-block index of level i (b_i in paper notation).
  std::size_t level_begin(std::size_t i) const {
    PRLC_REQUIRE(i < sizes_.size(), "level index out of range");
    return i == 0 ? 0 : prefix_[i - 1];
  }

  /// One-past-last source-block index of level i.
  std::size_t level_end(std::size_t i) const { return prefix_size(i); }

  /// N — total number of source blocks.
  std::size_t total() const { return prefix_.empty() ? 0 : prefix_.back(); }

  /// Level containing source block j (O(log n)).
  std::size_t level_of_block(std::size_t j) const;

  /// Largest k (block-prefix semantics): number of whole levels covered by
  /// a decoded prefix of `blocks` source blocks, i.e. max k with b_k <=
  /// blocks.
  std::size_t levels_covered_by_prefix(std::size_t blocks) const;

  /// Source-block range [begin, end) a coded block of `level` mixes under
  /// `scheme` (Sec. 3.1, §4): RLC all N sources, SLC the level's own
  /// sources, PLC the sources of levels 0..level.
  std::pair<std::size_t, std::size_t> support(Scheme scheme, std::size_t level) const;

  /// support()'s rule as a non-throwing check: whether `level` is a level
  /// of this spec and `coeffs` (one per source block) is zero outside
  /// support(scheme, level). PriorityDecoder requires it of every block;
  /// the collector rejects a frame that fails it as a wire error.
  template <typename Symbol>
  bool admits(Scheme scheme, std::size_t level, std::span<const Symbol> coeffs) const {
    if (level >= levels() || coeffs.size() != total()) return false;
    const auto [begin, end] = support(scheme, level);
    const auto zero = [](Symbol c) { return c == Symbol{0}; };
    return std::ranges::all_of(coeffs.first(begin), zero) &&
           std::ranges::all_of(coeffs.subspan(end), zero);
  }

  bool operator==(const PrioritySpec& other) const { return sizes_ == other.sizes_; }

  std::span<const std::size_t> level_sizes() const { return sizes_; }

 private:
  std::vector<std::size_t> sizes_;
  std::vector<std::size_t> prefix_;
};

/// Non-throwing parse of a comma-separated level-size list ("50,100,350")
/// into a spec; nullopt on malformed text, a zero size, or overflow. The
/// CLI/bench counterpart of try_scheme_from_string — bad --levels values
/// become usage errors, not PRLC_REQUIRE aborts.
std::optional<PrioritySpec> try_spec_from_string(std::string_view text);

/// Throwing wrapper for callers with validated input.
PrioritySpec spec_from_string(std::string_view text);

/// Largest-remainder apportionment of `total` items to nonnegative
/// `weights` that are not all zero: item i gets the floor of
/// total * w_i / sum(w), and the items left over go one each to the
/// largest fractional parts. Splits the M storage locations (or the
/// simulator's M coded blocks) over the levels by p_i, so a zero-weight
/// level gets nothing (Table 1, Case 2).
std::vector<std::size_t> apportion_largest_remainder(std::size_t total,
                                                     std::span<const double> weights);

/// Nonzero coefficients of one sparse coded block over a support of
/// `width` > 0 source blocks: ceil(factor * ln(max(2, width))), clamped to
/// [1, width] — the O(ln N) row weight of decentralized erasure codes. The
/// encoder and the in-network store draw their sparse rows with it.
std::size_t sparse_row_weight(double factor, std::size_t width);

/// Per-level coded-block fractions p_1..p_n: nonnegative, summing to 1.
class PriorityDistribution {
 public:
  /// Validates and renormalizes (tolerating |sum-1| <= 1e-9 drift).
  explicit PriorityDistribution(std::vector<double> p);

  /// Uniform distribution over `levels` levels.
  static PriorityDistribution uniform(std::size_t levels);

  std::size_t levels() const { return p_.size(); }
  double at(std::size_t i) const {
    PRLC_REQUIRE(i < p_.size(), "level index out of range");
    return p_[i];
  }
  std::span<const double> values() const { return p_; }

  /// Sum of p_i over levels [first, last] inclusive (paper's P_{i,j}).
  double range_sum(std::size_t first, std::size_t last) const;

  /// Sample a level index (multinomial draw of one coded block's level).
  std::size_t sample_level(Rng& rng) const { return alias_.sample(rng); }

 private:
  /// Clamps tiny negatives, checks the sum, renormalizes in place.
  static void validate(std::vector<double>& p);

  std::vector<double> p_;
  AliasTable alias_;
};

}  // namespace prlc::codes
