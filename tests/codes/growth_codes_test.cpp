#include "codes/growth_codes.h"

#include <gtest/gtest.h>

#include <set>

#include "codes/peeling_decoder.h"
#include "util/check.h"
#include "util/stats.h"

namespace prlc::codes {
namespace {

TEST(GrowthCodes, DegreeSchedule) {
  // Switch points (d-1)/d: degree 1 until r = N/2, 2 until 2N/3, ...
  const GrowthEncoder enc(100);
  EXPECT_EQ(enc.degree_for(0), 1u);
  EXPECT_EQ(enc.degree_for(49), 1u);
  EXPECT_EQ(enc.degree_for(50), 2u);
  EXPECT_EQ(enc.degree_for(66), 2u);
  EXPECT_EQ(enc.degree_for(67), 3u);
  EXPECT_EQ(enc.degree_for(75), 4u);
  EXPECT_EQ(enc.degree_for(90), 10u);
  EXPECT_EQ(enc.degree_for(99), 100u);
  EXPECT_EQ(enc.degree_for(100), 100u);
  EXPECT_THROW(enc.degree_for(101), PreconditionError);
}

TEST(GrowthCodes, SymbolsHaveDistinctInRangeIndices) {
  Rng rng(231);
  const GrowthEncoder enc(50);
  for (std::size_t r : {0u, 25u, 40u, 49u}) {
    const auto sym = enc.encode(r, rng);
    EXPECT_EQ(sym.indices.size(), enc.degree_for(r));
    std::set<std::size_t> unique(sym.indices.begin(), sym.indices.end());
    EXPECT_EQ(unique.size(), sym.indices.size());
    for (std::size_t i : sym.indices) EXPECT_LT(i, 50u);
  }
}

TEST(GrowthCodes, OracleFeedbackDecodesWithModestOverhead) {
  // With true-recovery feedback, Growth Codes stay near the "always
  // useful" operating point: full recovery within ~ 2.5 N symbols
  // (coupon effects dominate the tail).
  Rng rng(233);
  const std::size_t n = 100;
  const GrowthEncoder enc(n);
  RunningStats used;
  for (int t = 0; t < 20; ++t) {
    PeelingDecoder dec(n);
    std::size_t symbols = 0;
    while (dec.decoded_count() < n && symbols < 20 * n) {
      const auto sym = enc.encode(dec.decoded_count(), rng);
      dec.add(sym.indices);
      ++symbols;
    }
    ASSERT_EQ(dec.decoded_count(), n);
    used.add(static_cast<double>(symbols));
  }
  EXPECT_LT(used.mean(), 4.0 * n);
  EXPECT_GT(used.mean(), 1.0 * n);
}

TEST(GrowthCodes, EarlyRecoveryBeatsRlcStyleMixing) {
  // The design goal: after only N/2 symbols, Growth Codes have already
  // recovered a sizable fraction, whereas full-mixing codes have nothing.
  Rng rng(234);
  const std::size_t n = 200;
  const GrowthEncoder enc(n);
  RunningStats recovered;
  for (int t = 0; t < 20; ++t) {
    PeelingDecoder dec(n);
    for (std::size_t s = 0; s < n / 2; ++s) {
      dec.add(enc.encode(dec.decoded_count(), rng).indices);
    }
    recovered.add(static_cast<double>(dec.decoded_count()));
  }
  EXPECT_GT(recovered.mean(), 0.3 * static_cast<double>(n));
}

TEST(GrowthCodes, ValidatesConstruction) {
  EXPECT_THROW(GrowthEncoder(0), PreconditionError);
}

}  // namespace
}  // namespace prlc::codes
