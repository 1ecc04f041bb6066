#include "codes/priority_spec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace prlc::codes {
namespace {

TEST(PrioritySpec, PrefixSums) {
  const PrioritySpec spec({50, 100, 350});
  EXPECT_EQ(spec.levels(), 3u);
  EXPECT_EQ(spec.level_size(0), 50u);
  EXPECT_EQ(spec.level_size(2), 350u);
  EXPECT_EQ(spec.prefix_size(0), 50u);
  EXPECT_EQ(spec.prefix_size(1), 150u);
  EXPECT_EQ(spec.prefix_size(2), 500u);
  EXPECT_EQ(spec.total(), 500u);
}

TEST(PrioritySpec, LevelRanges) {
  const PrioritySpec spec({2, 3, 4});
  EXPECT_EQ(spec.level_begin(0), 0u);
  EXPECT_EQ(spec.level_end(0), 2u);
  EXPECT_EQ(spec.level_begin(1), 2u);
  EXPECT_EQ(spec.level_end(1), 5u);
  EXPECT_EQ(spec.level_begin(2), 5u);
  EXPECT_EQ(spec.level_end(2), 9u);
}

TEST(PrioritySpec, LevelOfBlock) {
  const PrioritySpec spec({2, 3, 4});
  EXPECT_EQ(spec.level_of_block(0), 0u);
  EXPECT_EQ(spec.level_of_block(1), 0u);
  EXPECT_EQ(spec.level_of_block(2), 1u);
  EXPECT_EQ(spec.level_of_block(4), 1u);
  EXPECT_EQ(spec.level_of_block(5), 2u);
  EXPECT_EQ(spec.level_of_block(8), 2u);
  EXPECT_THROW(spec.level_of_block(9), PreconditionError);
}

TEST(PrioritySpec, LevelsCoveredByPrefix) {
  const PrioritySpec spec({2, 3, 4});
  EXPECT_EQ(spec.levels_covered_by_prefix(0), 0u);
  EXPECT_EQ(spec.levels_covered_by_prefix(1), 0u);
  EXPECT_EQ(spec.levels_covered_by_prefix(2), 1u);
  EXPECT_EQ(spec.levels_covered_by_prefix(4), 1u);
  EXPECT_EQ(spec.levels_covered_by_prefix(5), 2u);
  EXPECT_EQ(spec.levels_covered_by_prefix(9), 3u);
  EXPECT_EQ(spec.levels_covered_by_prefix(100), 3u);
}

TEST(PrioritySpec, UniformFactory) {
  const auto spec = PrioritySpec::uniform(5, 200);
  EXPECT_EQ(spec.levels(), 5u);
  EXPECT_EQ(spec.total(), 1000u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(spec.level_size(i), 200u);
}

TEST(PrioritySpec, RejectsDegenerateSpecs) {
  EXPECT_THROW(PrioritySpec({}), PreconditionError);
  EXPECT_THROW(PrioritySpec({3, 0, 2}), PreconditionError);
  EXPECT_THROW(PrioritySpec::uniform(0, 5), PreconditionError);
  EXPECT_THROW(PrioritySpec::uniform(5, 0), PreconditionError);
}

TEST(PrioritySpec, Equality) {
  EXPECT_EQ(PrioritySpec({1, 2}), PrioritySpec({1, 2}));
  EXPECT_FALSE(PrioritySpec({1, 2}) == PrioritySpec({2, 1}));
}

TEST(PrioritySpec, TryParseFromString) {
  const auto spec = try_spec_from_string("50,100,350");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(*spec, PrioritySpec({50, 100, 350}));
  const auto single = try_spec_from_string("7");
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->levels(), 1u);
}

TEST(PrioritySpec, TryParseRejectsMalformedText) {
  EXPECT_EQ(try_spec_from_string(""), std::nullopt);
  EXPECT_EQ(try_spec_from_string(","), std::nullopt);
  EXPECT_EQ(try_spec_from_string("5,"), std::nullopt);
  EXPECT_EQ(try_spec_from_string(",5"), std::nullopt);
  EXPECT_EQ(try_spec_from_string("5,,7"), std::nullopt);
  EXPECT_EQ(try_spec_from_string("5,0,7"), std::nullopt);  // zero level size
  EXPECT_EQ(try_spec_from_string("5,x"), std::nullopt);
  EXPECT_EQ(try_spec_from_string("5, 7"), std::nullopt);  // no spaces accepted
  EXPECT_EQ(try_spec_from_string("99999999999999999999999"), std::nullopt);  // overflow
}

TEST(PrioritySpec, ThrowingParserWrapsTryParse) {
  EXPECT_EQ(spec_from_string("2,3,4"), PrioritySpec({2, 3, 4}));
  EXPECT_THROW(spec_from_string("nope"), PreconditionError);
}

TEST(PrioritySpec, LevelSizesAccessor) {
  const PrioritySpec spec({2, 3, 4});
  const auto sizes = spec.level_sizes();
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[2], 4u);
}

TEST(PrioritySpec, SupportPerScheme) {
  const PrioritySpec spec({2, 3, 4});
  using Range = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(spec.support(Scheme::kRlc, 0), (Range{0, 9}));
  EXPECT_EQ(spec.support(Scheme::kRlc, 2), (Range{0, 9}));
  EXPECT_EQ(spec.support(Scheme::kSlc, 0), (Range{0, 2}));
  EXPECT_EQ(spec.support(Scheme::kSlc, 1), (Range{2, 5}));
  EXPECT_EQ(spec.support(Scheme::kSlc, 2), (Range{5, 9}));
  EXPECT_EQ(spec.support(Scheme::kPlc, 0), (Range{0, 2}));
  EXPECT_EQ(spec.support(Scheme::kPlc, 1), (Range{0, 5}));
  EXPECT_EQ(spec.support(Scheme::kPlc, 2), (Range{0, 9}));
  EXPECT_THROW(spec.support(Scheme::kRlc, 3), PreconditionError);
}

TEST(PriorityDistribution, ValidatesAndNormalizes) {
  const PriorityDistribution d({0.25, 0.25, 0.5});
  EXPECT_EQ(d.levels(), 3u);
  EXPECT_DOUBLE_EQ(d.at(2), 0.5);
  EXPECT_NEAR(d.range_sum(0, 2), 1.0, 1e-12);
  EXPECT_NEAR(d.range_sum(1, 2), 0.75, 1e-12);
}

TEST(PriorityDistribution, AllowsZeroEntries) {
  // Table 1, Case 2 of the paper has p1 = 0.
  const PriorityDistribution d({0.0, 0.6149, 0.3851});
  EXPECT_DOUBLE_EQ(d.at(0), 0.0);
  Rng rng(81);
  for (int i = 0; i < 1000; ++i) EXPECT_NE(d.sample_level(rng), 0u);
}

TEST(PriorityDistribution, RejectsBadDistributions) {
  EXPECT_THROW(PriorityDistribution({0.5, 0.4}), PreconditionError);       // sums to 0.9
  EXPECT_THROW(PriorityDistribution({0.7, -0.3, 0.6}), PreconditionError); // negative
  EXPECT_THROW(PriorityDistribution(std::vector<double>{}), PreconditionError);
}

TEST(PriorityDistribution, UniformFactory) {
  const auto d = PriorityDistribution::uniform(4);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(d.at(i), 0.25);
}

TEST(PriorityDistribution, SamplingMatchesWeights) {
  const PriorityDistribution d({0.1, 0.2, 0.7});
  Rng rng(82);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[d.sample_level(rng)];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(PriorityDistribution, RangeSumBoundsChecked) {
  const auto d = PriorityDistribution::uniform(3);
  EXPECT_THROW(d.range_sum(2, 1), PreconditionError);
  EXPECT_THROW(d.range_sum(0, 3), PreconditionError);
}

TEST(Apportion, LargestRemainderExact) {
  const std::vector<double> w = {0.5, 0.25, 0.25};
  const auto parts = apportion_largest_remainder(8, w);
  EXPECT_EQ(parts, (std::vector<std::size_t>{4, 2, 2}));
}

TEST(Apportion, RoundsWithinOne) {
  const std::vector<double> w = {0.5138, 0.0768, 0.4094};  // Table 1, Case 1
  const auto parts = apportion_largest_remainder(1000, w);
  std::size_t total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    total += parts[i];
    EXPECT_NEAR(static_cast<double>(parts[i]), 1000 * w[i], 1.0);
  }
  EXPECT_EQ(total, 1000u);
}

TEST(Apportion, ZeroWeightGetsZero) {
  const std::vector<double> w = {0.0, 0.6149, 0.3851};  // Table 1, Case 2
  const auto parts = apportion_largest_remainder(500, w);
  EXPECT_EQ(parts[0], 0u);
  EXPECT_EQ(parts[1] + parts[2], 500u);
}

TEST(Apportion, Validates) {
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(apportion_largest_remainder(5, zero), PreconditionError);
  const std::vector<double> neg = {1.0, -0.5};
  EXPECT_THROW(apportion_largest_remainder(5, neg), PreconditionError);
}

TEST(PrioritySpec, AdmitsOnlyCoefficientsInsideTheSupport) {
  const PrioritySpec spec({2, 3, 4});  // levels [0,2) [2,5) [5,9)
  std::vector<std::uint8_t> coeffs(spec.total(), 0);
  coeffs[3] = 5;  // one term in level 1
  const std::span<const std::uint8_t> c(coeffs);
  EXPECT_TRUE(spec.admits(Scheme::kSlc, 1, c));
  EXPECT_FALSE(spec.admits(Scheme::kSlc, 0, c));
  EXPECT_FALSE(spec.admits(Scheme::kSlc, 2, c));
  EXPECT_FALSE(spec.admits(Scheme::kPlc, 0, c));
  EXPECT_TRUE(spec.admits(Scheme::kPlc, 1, c));
  EXPECT_TRUE(spec.admits(Scheme::kPlc, 2, c));
  EXPECT_TRUE(spec.admits(Scheme::kRlc, 0, c));
  // Never throws: a level the spec lacks or a wrong width is a "no".
  EXPECT_FALSE(spec.admits(Scheme::kRlc, 3, c));
  EXPECT_FALSE(spec.admits(Scheme::kRlc, 0, c.first(8)));
}

}  // namespace
}  // namespace prlc::codes
