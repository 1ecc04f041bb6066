#include "codes/decoder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/encoder.h"
#include "gf/gf2m.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "linalg/gauss_jordan.h"
#include "linalg/matrix.h"
#include "obs/events.h"
#include "obs/metrics.h"
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

TEST(PriorityDecoder, RejectsBlocksOutsideTheirLevel) {
  const auto spec = small_spec();  // levels [0,2) [2,5) [5,9)
  // A level-0 block may only mix level 0, under SLC and PLC alike.
  for (Scheme scheme : {Scheme::kSlc, Scheme::kPlc}) {
    PriorityDecoder<F> dec(scheme, spec);
    CodedBlock<F> past{0, std::vector<std::uint8_t>(spec.total(), 0), {}};
    past.coeffs[0] = 1;
    past.coeffs[2] = 3;  // first block of level 1
    EXPECT_THROW(dec.add(past), PreconditionError) << to_string(scheme);
    EXPECT_EQ(dec.rank(), 0u);
  }
  // A level the spec does not have, under every scheme.
  for (Scheme scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    PriorityDecoder<F> dec(scheme, spec);
    CodedBlock<F> beyond{spec.levels(), std::vector<std::uint8_t>(spec.total(), 0), {}};
    beyond.coeffs[0] = 1;
    EXPECT_THROW(dec.add(beyond), PreconditionError) << to_string(scheme);
  }
}

TEST(PriorityDecoder, SlcJournalReportsTheGlobalPrefix) {
  // One decoder over all N unknowns: SLC's journal and watermark gauge
  // count source-block columns and equations across levels.
  obs::reset_telemetry();
  obs::set_telemetry_enabled(true);
  const bool metrics_before = obs::enabled();
  obs::set_enabled(true);
  obs::Gauge& watermark = obs::gauge("decoder.prefix_watermark");
  watermark.reset();
  Rng rng(7);
  const PrioritySpec spec({4, 8});
  const PriorityEncoder<F> enc(Scheme::kSlc, spec);
  PriorityDecoder<F> dec(Scheme::kSlc, spec);
  std::size_t fed = 0;
  {
    obs::TrialScope scope(obs::begin_telemetry_run(), 0);
    for (const std::size_t level : {1, 0}) {
      for (; !dec.is_level_decoded(level); ++fed) dec.add(enc.encode(level, rng));
    }
  }
  const std::string events = obs::Journal::global().events_jsonl();
  const std::int64_t gauge = watermark.value();
  obs::set_enabled(metrics_before);
  obs::set_telemetry_enabled(false);
  obs::reset_telemetry();

  EXPECT_EQ(fed, 12u);  // every GF(256) draw at this seed is innovative
  const std::string advance = "\"event\":\"watermark_advance\"";
  const std::size_t first = events.find(advance);
  EXPECT_EQ(events.find(advance, first + 1), std::string::npos) << events;
  EXPECT_EQ(events.find(advance + ",\"prefix_blocks\":12,\"equations\":" +
                        std::to_string(fed) + "}"),
            first)
      << events;
  EXPECT_EQ(gauge, 12);
}

/// Check `dec` against a batch RREF of the rows fed so far: rank, which
/// unknowns are determined, their payload bytes, and the level views.
template <gf::FieldPolicy Field>
void expect_matches_rref(const PriorityDecoder<Field>& dec, linalg::Matrix<Field> rows,
                         const SourceData<Field>& source) {
  const PrioritySpec& spec = dec.spec();
  const linalg::RrefInfo info = linalg::rref(rows);
  ASSERT_EQ(dec.rank(), info.rank);
  std::vector<bool> decoded(spec.total(), false);
  for (std::size_t i = 0; i < info.rank; ++i) {
    const auto row = rows.row(i);
    decoded[info.pivot_cols[i]] = std::ranges::count(row, 0) + 1 == std::ssize(row);
  }
  std::size_t leading = 0;
  for (std::size_t level = 0; level < spec.levels(); ++level) {
    bool whole = true;
    for (std::size_t j = spec.level_begin(level); j < spec.level_end(level); ++j) {
      ASSERT_EQ(dec.is_block_decoded(j), decoded[j]) << "block " << j;
      if (decoded[j]) {
        ASSERT_TRUE(std::ranges::equal(dec.recovered(j), source.block(j))) << "block " << j;
      }
      whole = whole && decoded[j];
    }
    ASSERT_EQ(dec.is_level_decoded(level), whole) << "level " << level;
    if (whole && leading == level) ++leading;
  }
  ASSERT_EQ(dec.decoded_levels(), leading);
  std::size_t prefix = 0;
  while (prefix < spec.total() && decoded[prefix]) ++prefix;
  if (dec.scheme() == Scheme::kSlc) prefix = leading == 0 ? 0 : spec.prefix_size(leading - 1);
  ASSERT_EQ(dec.decoded_prefix_blocks(), prefix);
}

/// Feed a random stream of dense, sparse-model, all-zero and redundant
/// blocks (rank-deficient until late, and often for good over GF(2^4)),
/// checking the decoder against linalg::rref after every one. Every block
/// enters through add(CodedBlock).
template <gf::FieldPolicy Field>
void differential_against_rref(Scheme scheme, std::uint64_t seed) {
  SCOPED_TRACE(std::string(to_string(scheme)) + " seed " + std::to_string(seed));
  using Symbol = typename Field::Symbol;
  Rng rng(seed);
  const PrioritySpec spec({3, 4, 5});
  const std::size_t block_size = 5;
  const auto source = SourceData<Field>::random(spec.total(), block_size, rng);
  const PriorityEncoder<Field> dense(scheme, spec, {}, &source);
  EncoderOptions sparse_opt;
  sparse_opt.model = CoefficientModel::kSparse;
  sparse_opt.sparsity_factor = 0.7;
  const PriorityEncoder<Field> sparse(scheme, spec, sparse_opt, &source);
  PriorityDecoder<Field> dec(scheme, spec, block_size);
  std::vector<CodedBlock<Field>> fed;
  linalg::Matrix<Field> rows(0, spec.total());
  for (std::size_t step = 0; step < 2 * spec.total() + 6; ++step) {
    const std::size_t level = rng.uniform(spec.levels());
    const std::uint64_t kind = rng.uniform(10);
    CodedBlock<Field> b{level, std::vector<Symbol>(spec.total(), 0),
                        std::vector<Symbol>(block_size, 0)};
    if (kind < 5) {
      b = dense.encode(level, rng);
      dec.add(b);
    } else if (kind < 7) {
      b = sparse.encode(level, rng);
      dec.add(b);
    } else {
      // All-zero, or a combination of two fed rows whose supports nest
      // (SLC: same level; PLC: the higher level's covers the lower's).
      if (kind >= 8 && !fed.empty()) {
        const CodedBlock<Field>& x = fed[rng.uniform(fed.size())];
        const CodedBlock<Field>& y = fed[rng.uniform(fed.size())];
        const bool nest = scheme != Scheme::kSlc || x.level == y.level;
        const auto a = static_cast<Symbol>(1 + rng.uniform(Field::order() - 1));
        const auto c = static_cast<Symbol>(nest ? rng.uniform(Field::order()) : 0);
        b.level = nest ? std::max(x.level, y.level) : x.level;
        for (std::size_t j = 0; j < spec.total(); ++j) {
          b.coeffs[j] = Field::add(Field::mul(a, x.coeffs[j]), Field::mul(c, y.coeffs[j]));
        }
        for (std::size_t t = 0; t < block_size; ++t) {
          b.payload[t] = Field::add(Field::mul(a, x.payload[t]), Field::mul(c, y.payload[t]));
        }
      }
      dec.add(b);
    }
    rows.append_row(b.coeffs);
    fed.push_back(std::move(b));
    expect_matches_rref(dec, rows, source);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PriorityDecoder, MatchesBatchRrefForEverySchemeAndField) {
  for (Scheme scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    for (std::uint64_t seed = 1; seed <= 12 && !HasFatalFailure(); ++seed) {
      differential_against_rref<gf::Gf256>(scheme, seed);
      differential_against_rref<gf::Gf16>(scheme, 100 + seed);
    }
  }
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

TEST(PriorityDecoder, OnlyInnovativeBlocksRaiseTheRank) {
  Rng rng(118);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  feed(dec, enc, 0, 10, rng);  // only 2 can be innovative
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
