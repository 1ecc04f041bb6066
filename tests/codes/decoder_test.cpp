#include "codes/decoder.h"

#include <gtest/gtest.h>

#include "codes/encoder.h"
#include "gf/gf2m.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "util/check.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

PrioritySpec small_spec() { return PrioritySpec({2, 3, 4}); }

/// Feed random blocks of the given levels until `count` of them are in.
template <gf::FieldPolicy Field>
void feed(PriorityDecoder<Field>& dec, const PriorityEncoder<Field>& enc, std::size_t level,
          std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) dec.add(enc.encode(level, rng));
}

TEST(PriorityDecoder, RlcIsAllOrNothing) {
  Rng rng(111);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kRlc, spec);
  PriorityDecoder<F> dec(Scheme::kRlc, spec);
  feed(dec, enc, 0, spec.total() - 1, rng);
  EXPECT_EQ(dec.decoded_levels(), 0u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 0u);
  // One more independent block completes everything (whp over GF(256)).
  feed(dec, enc, 0, 3, rng);
  EXPECT_EQ(dec.decoded_levels(), 3u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), spec.total());
}

TEST(PriorityDecoder, PlcDecodesLevelsProgressively) {
  Rng rng(112);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // Two level-0 blocks decode level 0 (b_1 = 2).
  feed(dec, enc, 0, 2, rng);
  EXPECT_EQ(dec.decoded_levels(), 1u);
  EXPECT_TRUE(dec.is_level_decoded(0));
  EXPECT_FALSE(dec.is_level_decoded(1));
  // Three level-1 blocks extend the prefix to b_2 = 5.
  feed(dec, enc, 1, 3, rng);
  EXPECT_EQ(dec.decoded_levels(), 2u);
  // Four level-2 blocks finish everything.
  feed(dec, enc, 2, 4, rng);
  EXPECT_EQ(dec.decoded_levels(), 3u);
  EXPECT_EQ(dec.rank(), spec.total());
}

TEST(PriorityDecoder, PlcHigherLevelBlocksAloneDecodeEverything) {
  Rng rng(113);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // Level-2 PLC blocks span all 9 unknowns; 9 of them decode all levels.
  feed(dec, enc, 2, 9, rng);
  EXPECT_EQ(dec.decoded_levels(), 3u);
}

TEST(PriorityDecoder, PlcMixedBlocksFollowTheorem1Counts) {
  Rng rng(114);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // D = (1, 4, 0): D_{1,2} = 5 >= b_2 = 5 and D_{2,2} = 4 >= b_2-b_1 = 3,
  // so exactly two levels decode (Theorem 1).
  feed(dec, enc, 0, 1, rng);
  feed(dec, enc, 1, 4, rng);
  EXPECT_EQ(dec.decoded_levels(), 2u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 5u);
}

TEST(PriorityDecoder, SlcLevelsAreIndependent) {
  Rng rng(115);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kSlc, spec);
  PriorityDecoder<F> dec(Scheme::kSlc, spec);
  // Decode level 1 (3 blocks) without level 0: strict-priority X stays 0.
  feed(dec, enc, 1, 3, rng);
  EXPECT_TRUE(dec.is_level_decoded(1));
  EXPECT_FALSE(dec.is_level_decoded(0));
  EXPECT_EQ(dec.decoded_levels(), 0u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 0u);
  // Blocks 2..4 are individually decoded though.
  EXPECT_TRUE(dec.is_block_decoded(2));
  EXPECT_FALSE(dec.is_block_decoded(0));
  // Now decode level 0: prefix jumps to 2 levels.
  feed(dec, enc, 0, 2, rng);
  EXPECT_EQ(dec.decoded_levels(), 2u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 5u);
}

TEST(PriorityDecoder, SlcRejectsOutOfLevelSupport) {
  const auto spec = small_spec();
  PriorityDecoder<F> dec(Scheme::kSlc, spec);
  CodedBlock<F> bad;
  bad.level = 0;
  bad.coeffs.assign(spec.total(), 0);
  bad.coeffs[0] = 1;
  bad.coeffs[5] = 2;  // outside level 0
  EXPECT_THROW(dec.add(bad), PreconditionError);
}

TEST(PriorityDecoder, PayloadRoundTripAllSchemes) {
  Rng rng(116);
  const auto spec = small_spec();
  // Block sizes below, inside and across the 8 KiB kernel tile: 4097
  // leaves a partial tile, 3 tiles + 37 a ragged tail after whole ones.
  for (const std::size_t block_size :
       {std::size_t{6}, std::size_t{4097}, 3 * gf::kGf256TileBytes + 37}) {
    for (Scheme scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
      const auto source = SourceData<F>::random(spec.total(), block_size, rng);
      const PriorityEncoder<F> enc(scheme, spec, {}, &source);
      PriorityDecoder<F> dec(scheme, spec, block_size);
      // Saturate the levels one at a time; every block decoded so far,
      // a partial prefix included, must be the source block.
      for (std::size_t level = 0; level < spec.levels(); ++level) {
        feed(dec, enc, level, spec.total() + 2, rng);
        ASSERT_GE(dec.decoded_levels(), level + 1) << to_string(scheme);
        EXPECT_EQ(dec.rank(), scheme == Scheme::kRlc ? spec.total() : spec.prefix_size(level))
            << to_string(scheme);
        for (std::size_t j = 0; j < spec.total(); ++j) {
          if (!dec.is_block_decoded(j)) continue;
          const auto got = dec.recovered(j);
          const auto want = source.block(j);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
              << to_string(scheme) << " block " << j << " of " << block_size << " bytes";
        }
      }
      for (std::size_t j = 0; j < spec.total(); ++j) ASSERT_TRUE(dec.is_block_decoded(j));
    }
  }
}

TEST(PriorityDecoder, SparsePlcStillDecodes) {
  Rng rng(117);
  const auto spec = PrioritySpec::uniform(4, 25);  // N = 100
  EncoderOptions opt;
  opt.model = CoefficientModel::kSparse;
  opt.sparsity_factor = 4.0;
  const PriorityEncoder<F> enc(Scheme::kPlc, spec, opt);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // Half again as many blocks as unknowns, all at the last level.
  feed(dec, enc, 3, 150, rng);
  EXPECT_EQ(dec.decoded_levels(), 4u);
}

TEST(PriorityDecoder, MismatchedBlockRejected) {
  const auto spec = small_spec();
  PriorityDecoder<F> dec(Scheme::kPlc, spec, 4);
  CodedBlock<F> b;
  b.level = 0;
  b.coeffs.assign(spec.total() + 1, 0);
  b.payload.assign(4, 0);
  EXPECT_THROW(dec.add(b), PreconditionError);
  b.coeffs.assign(spec.total(), 0);
  b.payload.assign(3, 0);
  EXPECT_THROW(dec.add(b), PreconditionError);
}

TEST(PriorityDecoder, BlocksSeenCountsEverything) {
  Rng rng(118);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  feed(dec, enc, 0, 10, rng);  // only 2 can be innovative
  EXPECT_EQ(dec.blocks_seen(), 10u);
  EXPECT_EQ(dec.rank(), 2u);
}

TEST(PriorityDecoder, WorksOverGf2) {
  // Small fields lose rank more often but the machinery must still work.
  using F2 = gf::Gf2;
  Rng rng(119);
  const auto spec = PrioritySpec({3, 3});
  const PriorityEncoder<F2> enc(Scheme::kPlc, spec);
  PriorityDecoder<F2> dec(Scheme::kPlc, spec);
  feed(dec, enc, 1, 60, rng);  // heavy overprovisioning beats GF(2) defects
  EXPECT_EQ(dec.decoded_levels(), 2u);
}

TEST(PriorityDecoder, RecoveredRequiresPayloadMode) {
  Rng rng(120);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  feed(dec, enc, 0, 2, rng);
  EXPECT_THROW(dec.recovered(0), PreconditionError);
}

}  // namespace
}  // namespace prlc::codes
