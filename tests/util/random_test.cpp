#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace prlc {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformStaysBelowBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformBoundOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformRejectsZeroBound) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(0), PreconditionError);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(8);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 20000, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  rng.shuffle(std::span<int>(shuffled));
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));  // astronomically unlikely
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(13);
  for (std::size_t k : {0u, 1u, 5u, 50u, 99u, 100u}) {
    const auto sample = rng.sample_without_replacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (std::size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(14);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), PreconditionError);
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng(15);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 20000; ++trial) {
    for (std::size_t s : rng.sample_without_replacement(10, 3)) ++counts[s];
  }
  for (int c : counts) EXPECT_NEAR(c / 20000.0, 0.3, 0.03);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(16);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(AliasTable, MatchesWeights) {
  Rng rng(17);
  const std::vector<double> w = {0.5, 0.0, 2.0, 1.5};
  AliasTable table{std::span<const double>(w)};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[table.sample(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 40000.0, 0.125, 0.01);
  EXPECT_NEAR(counts[2] / 40000.0, 0.5, 0.015);
  EXPECT_NEAR(counts[3] / 40000.0, 0.375, 0.015);
}

TEST(AliasTable, SingleCategory) {
  Rng rng(18);
  const std::vector<double> w = {3.0};
  AliasTable table{std::span<const double>(w)};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, RejectsAllZero) {
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(AliasTable{std::span<const double>(w)}, PreconditionError);
}

TEST(SplitMix, KnownNonDegenerate) {
  std::uint64_t s = 0;
  const auto a = splitmix64_next(s);
  const auto b = splitmix64_next(s);
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);
}

}  // namespace
}  // namespace prlc
