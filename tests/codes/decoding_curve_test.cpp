#include "codes/decoding_curve.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "gf/gf256.h"
#include "util/check.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

TEST(MakeBlockCounts, EvenSpacingAndDedup) {
  const auto counts = make_block_counts(10, 100, 10);
  EXPECT_EQ(counts.front(), 10u);
  EXPECT_EQ(counts.back(), 100u);
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_LT(counts[i - 1], counts[i]);
  const auto tight = make_block_counts(5, 7, 10);  // more points than range
  EXPECT_EQ(tight, (std::vector<std::size_t>{5, 6, 7}));
}

TEST(MakeBlockCounts, SinglePoint) {
  EXPECT_EQ(make_block_counts(42, 42, 1), (std::vector<std::size_t>{42}));
  EXPECT_EQ(make_block_counts(10, 50, 1), (std::vector<std::size_t>{50}));
}

TEST(MakeBlockCounts, RejectsBadRanges) {
  EXPECT_THROW(make_block_counts(0, 10, 3), PreconditionError);
  EXPECT_THROW(make_block_counts(10, 9, 3), PreconditionError);
  EXPECT_THROW(make_block_counts(1, 10, 0), PreconditionError);
}

TEST(DecodingCurve, MonotoneAndBounded) {
  const auto spec = PrioritySpec::uniform(4, 10);  // N = 40
  const auto dist = PriorityDistribution::uniform(4);
  CurveOptions opt;
  opt.block_counts = make_block_counts(5, 100, 8);
  opt.trials = 20;
  opt.seed = 3;
  const auto curve = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  ASSERT_EQ(curve.size(), 8u);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].mean_levels, 0.0);
    EXPECT_LE(curve[i].mean_levels, 4.0);
    EXPECT_LE(curve[i].mean_blocks, 40.0);
    if (i > 0) {
      // Decoded prefix is monotone within each trial, hence in the mean.
      EXPECT_GE(curve[i].mean_levels, curve[i - 1].mean_levels - 1e-12);
      EXPECT_GE(curve[i].mean_blocks, curve[i - 1].mean_blocks - 1e-12);
    }
  }
  // With 100 blocks for 40 unknowns everything decodes.
  EXPECT_NEAR(curve.back().mean_levels, 4.0, 1e-9);
  EXPECT_NEAR(curve.back().mean_blocks, 40.0, 1e-9);
}

TEST(DecodingCurve, RlcIsAllOrNothingAroundN) {
  const auto spec = PrioritySpec::uniform(2, 15);  // N = 30
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.block_counts = {15, 29, 31, 60};
  opt.trials = 15;
  opt.seed = 4;
  const auto curve = simulate_decoding_curve<F>(Scheme::kRlc, spec, dist, opt);
  EXPECT_DOUBLE_EQ(curve[0].mean_levels, 0.0);
  EXPECT_DOUBLE_EQ(curve[1].mean_levels, 0.0);
  EXPECT_GT(curve[2].mean_levels, 1.5);   // 31 blocks: usually both levels
  EXPECT_NEAR(curve[3].mean_levels, 2.0, 1e-9);
}

TEST(DecodingCurve, PlcBeatsRlcOnFirstLevel) {
  const auto spec = PrioritySpec({5, 35});
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.block_counts = {12};
  opt.trials = 30;
  opt.seed = 5;
  const auto plc = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  const auto rlc = simulate_decoding_curve<F>(Scheme::kRlc, spec, dist, opt);
  EXPECT_GT(plc[0].mean_levels, 0.3);
  EXPECT_DOUBLE_EQ(rlc[0].mean_levels, 0.0);
}

TEST(DecodingCurve, DeterministicPerSeed) {
  const auto spec = PrioritySpec::uniform(3, 5);
  const auto dist = PriorityDistribution::uniform(3);
  CurveOptions opt;
  opt.block_counts = {5, 15, 25};
  opt.trials = 10;
  opt.seed = 77;
  const auto a = simulate_decoding_curve<F>(Scheme::kSlc, spec, dist, opt);
  const auto b = simulate_decoding_curve<F>(Scheme::kSlc, spec, dist, opt);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].mean_levels, b[i].mean_levels);
    EXPECT_DOUBLE_EQ(a[i].ci95_levels, b[i].ci95_levels);
  }
}

/// The curve of `opt` at 1 thread must equal the curve at `threads`.
void expect_same_curve_across_threads(Scheme scheme, const PrioritySpec& spec,
                                      const PriorityDistribution& dist, CurveOptions opt,
                                      std::initializer_list<std::size_t> threads) {
  opt.threads = 1;
  const auto serial = simulate_decoding_curve<F>(scheme, spec, dist, opt);
  for (const std::size_t t : threads) {
    SCOPED_TRACE(::testing::Message() << to_string(scheme) << " threads " << t);
    opt.threads = t;
    const auto wide = simulate_decoding_curve<F>(scheme, spec, dist, opt);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].mean_levels, wide[i].mean_levels);
      EXPECT_EQ(serial[i].ci95_levels, wide[i].ci95_levels);
      EXPECT_EQ(serial[i].mean_blocks, wide[i].mean_blocks);
      EXPECT_EQ(serial[i].ci95_blocks, wide[i].ci95_blocks);
    }
  }
}

TEST(DecodingCurve, ThreadCountDoesNotChangeResults) {
  CurveOptions dense;
  dense.block_counts = {10, 25, 45, 80};
  dense.trials = 16;
  dense.seed = 91;
  expect_same_curve_across_threads(Scheme::kPlc, PrioritySpec({5, 10, 25}),
                                   PriorityDistribution::uniform(3), dense, {4});
  // The sparse coefficient model, whose low-weight rows take the decoder's
  // sparse path, under every scheme.
  CurveOptions sparse;
  sparse.block_counts = make_block_counts(10, 120, 6);
  sparse.trials = 12;
  sparse.seed = 77;
  sparse.encoder.model = CoefficientModel::kSparse;
  sparse.encoder.sparsity_factor = 2.0;
  for (const auto scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    expect_same_curve_across_threads(scheme, PrioritySpec::uniform(4, 12),
                                     PriorityDistribution::uniform(4), sparse, {2, 8});
  }
}

TEST(DecodingCurve, ChunkedSparsityStillDecodesEverything) {
  // Chunked supports cover every chunk with enough blocks, so the curve
  // still saturates — with far less decoder fill-in (the N = 1e5 regime's
  // enabling structure, asserted here at test scale).
  const auto spec = PrioritySpec::uniform(2, 32);  // N = 64
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.block_counts = {400};
  opt.trials = 6;
  opt.seed = 11;
  opt.threads = 1;
  opt.encoder.model = CoefficientModel::kSparse;
  opt.encoder.sparsity_factor = 3.0;
  opt.encoder.chunk_size = 16;
  const auto curve = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  EXPECT_NEAR(curve.back().mean_levels, 2.0, 1e-9);
  EXPECT_NEAR(curve.back().mean_blocks, 64.0, 1e-9);
}

TEST(DecodingCurve, ValidatesOptions) {
  const auto spec = PrioritySpec::uniform(2, 5);
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.trials = 5;
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt), PreconditionError);
  opt.block_counts = {10, 10};
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt), PreconditionError);
  opt.block_counts = {10};
  opt.trials = 0;
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt), PreconditionError);
  opt.trials = 1;
  const auto wrong_dist = PriorityDistribution::uniform(3);
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, wrong_dist, opt),
               PreconditionError);
}

}  // namespace
}  // namespace prlc::codes
