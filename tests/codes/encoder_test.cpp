#include "codes/encoder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "gf/gf256.h"
#include "gf/gf2m.h"
#include "util/check.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

PrioritySpec small_spec() { return PrioritySpec({2, 3, 4}); }

TEST(Encoder, CoefficientsStayInsideSupport) {
  Rng rng(91);
  const auto spec = small_spec();
  for (Scheme scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    const PriorityEncoder<F> enc(scheme, spec);
    for (std::size_t level = 0; level < spec.levels(); ++level) {
      for (int t = 0; t < 50; ++t) {
        const auto block = enc.encode(level, rng);
        EXPECT_EQ(block.level, level);
        ASSERT_EQ(block.coeffs.size(), spec.total());
        const auto [begin, end] = spec.support(scheme, level);
        for (std::size_t j = 0; j < spec.total(); ++j) {
          if (j < begin || j >= end) {
            ASSERT_EQ(block.coeffs[j], 0)
                << to_string(scheme) << " level " << level << " col " << j;
          }
        }
      }
    }
  }
}

TEST(Encoder, DenseUniformNeverAllZero) {
  Rng rng(92);
  const PriorityEncoder<F> enc(Scheme::kSlc, PrioritySpec({1, 1}));
  for (int t = 0; t < 2000; ++t) {
    const auto block = enc.encode(0, rng);
    // Support width 1: dense-uniform redraws until nonzero.
    EXPECT_NE(block.coeffs[0], 0);
  }
}

TEST(Encoder, DenseUniformRedrawLeavesNoStaleValues) {
  // Over GF(2) a 4-wide support draws all-zero with probability 1/16, so
  // the redraw loop runs constantly; every emitted row must still be
  // nonzero and contain only freshly drawn (field-valid) symbols.
  Rng rng(93);
  const PriorityEncoder<gf::Gf2> enc(Scheme::kRlc, PrioritySpec({2, 2}));
  for (int t = 0; t < 2000; ++t) {
    const auto block = enc.encode(1, rng);
    bool any = false;
    for (auto c : block.coeffs) {
      EXPECT_LT(c, gf::Gf2::order());
      any = any || c != 0;
    }
    EXPECT_TRUE(any);
  }
}

TEST(Encoder, SparseModelRowWeight) {
  Rng rng(94);
  EncoderOptions opt;
  opt.model = CoefficientModel::kSparse;
  opt.sparsity_factor = 3.0;
  const auto spec = PrioritySpec::uniform(4, 100);  // N = 400
  const PriorityEncoder<F> enc(Scheme::kPlc, spec, opt);
  for (std::size_t level = 0; level < 4; ++level) {
    const std::size_t width = spec.level_end(level);
    const auto expected =
        std::min<std::size_t>(width, static_cast<std::size_t>(std::ceil(3.0 * std::log(width))));
    for (int t = 0; t < 20; ++t) {
      const auto block = enc.encode(level, rng);
      std::size_t nnz = 0;
      for (auto c : block.coeffs) nnz += c != 0 ? 1 : 0;
      EXPECT_EQ(nnz, expected) << "level " << level;
    }
  }
}

TEST(Encoder, SparseWeightClampedToSupport) {
  Rng rng(95);
  EncoderOptions opt;
  opt.model = CoefficientModel::kSparse;
  opt.sparsity_factor = 100.0;  // would exceed support
  const PriorityEncoder<F> enc(Scheme::kSlc, small_spec(), opt);
  const auto block = enc.encode(0, rng);
  std::size_t nnz = 0;
  for (auto c : block.coeffs) nnz += c != 0 ? 1 : 0;
  EXPECT_EQ(nnz, 2u);  // level-0 support is 2 wide
}

TEST(Encoder, PayloadIsLinearCombination) {
  Rng rng(96);
  const auto spec = small_spec();
  const auto source = SourceData<F>::random(spec.total(), 7, rng);
  const PriorityEncoder<F> enc(Scheme::kPlc, spec, {}, &source);
  for (std::size_t level = 0; level < spec.levels(); ++level) {
    const auto block = enc.encode(level, rng);
    ASSERT_EQ(block.payload.size(), 7u);
    std::vector<std::uint8_t> expect(7, 0);
    for (std::size_t j = 0; j < spec.total(); ++j) {
      F::axpy(std::span<std::uint8_t>(expect), block.coeffs[j], source.block(j));
    }
    EXPECT_EQ(block.payload, expect);
  }
}

TEST(Encoder, NoSourceMeansNoPayload) {
  Rng rng(97);
  const PriorityEncoder<F> enc(Scheme::kRlc, small_spec());
  EXPECT_TRUE(enc.encode(0, rng).payload.empty());
}

TEST(Encoder, EncodeRandomUsesDistribution) {
  Rng rng(98);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kSlc, spec);
  const PriorityDistribution dist({0.0, 1.0, 0.0});
  for (int t = 0; t < 100; ++t) EXPECT_EQ(enc.encode_random(dist, rng).level, 1u);
}

TEST(Encoder, RejectsMismatchedInputs) {
  Rng rng(99);
  const auto spec = small_spec();
  const auto wrong_source = SourceData<F>::random(spec.total() + 1, 4, rng);
  EXPECT_THROW(PriorityEncoder<F>(Scheme::kPlc, spec, {}, &wrong_source), PreconditionError);
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  EXPECT_THROW(enc.encode(3, rng), PreconditionError);
  const PriorityDistribution bad = PriorityDistribution::uniform(4);
  EXPECT_THROW(enc.encode_random(bad, rng), PreconditionError);
}

TEST(Encoder, SparseEmitterMatchesDenseEmitter) {
  // encode() and encode_sparse() must consume the RNG identically and
  // describe the same equation: expanding the sparse block reproduces the
  // dense block's coefficients and payload bit for bit, for every
  // coefficient model, scheme, and the chunked-sparsity option.
  Rng seed_rng(101);
  const auto spec = small_spec();
  const auto source = SourceData<F>::random(spec.total(), 7, seed_rng);
  const EncoderOptions configs[] = {
      {CoefficientModel::kDenseUniform, 3.0, 0},
      {CoefficientModel::kSparse, 1.5, 0},
      {CoefficientModel::kSparse, 1.5, 4},  // chunked
  };
  for (const auto scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    for (const auto& opts : configs) {
      const PriorityEncoder<F> enc(scheme, spec, opts, &source);
      for (std::size_t level = 0; level < spec.levels(); ++level) {
        for (int t = 0; t < 20; ++t) {
          const std::uint64_t s = 5000 + 100 * t + level;
          Rng rng_dense(s);
          Rng rng_sparse(s);
          const auto dense = enc.encode(level, rng_dense);
          const auto sparse = enc.encode_sparse(level, rng_sparse);
          ASSERT_EQ(dense.level, sparse.level);
          std::vector<std::uint8_t> expanded(spec.total(), 0);
          for (std::size_t k = 0; k < sparse.indices.size(); ++k) {
            ASSERT_NE(sparse.values[k], 0);
            ASSERT_TRUE(k == 0 || sparse.indices[k - 1] < sparse.indices[k])
                << "sparse indices must be strictly increasing";
            expanded[sparse.indices[k]] = sparse.values[k];
          }
          ASSERT_EQ(expanded, dense.coeffs);
          ASSERT_EQ(sparse.payload, dense.payload);
        }
      }
    }
  }
}

TEST(Encoder, ChunkedSupportStaysInsideOneChunk) {
  const auto spec = PrioritySpec::uniform(1, 64);  // N = 64, one level
  EncoderOptions opts;
  opts.model = CoefficientModel::kSparse;
  opts.chunk_size = 16;
  const PriorityEncoder<F> enc(Scheme::kRlc, spec, opts);
  Rng rng(103);
  for (int t = 0; t < 200; ++t) {
    const auto block = enc.encode_sparse(0, rng);
    ASSERT_FALSE(block.indices.empty());
    const std::size_t chunk = block.indices.front() / 16;
    for (const auto j : block.indices) {
      ASSERT_EQ(j / 16, chunk) << "support crossed a chunk boundary";
    }
  }
}

TEST(SourceData, RandomAndAccessors) {
  Rng rng(100);
  auto d = SourceData<F>::random(5, 3, rng);
  EXPECT_EQ(d.blocks(), 5u);
  EXPECT_EQ(d.block_size(), 3u);
  d.block(2)[1] = 42;
  EXPECT_EQ(d.block(2)[1], 42);
  EXPECT_THROW(d.block(5), PreconditionError);
}

template <typename Field>
void expect_aligned_blocks_in_draw_order(std::size_t block_size) {
  Rng rng(101);
  const auto d = SourceData<Field>::random(5, block_size, rng);
  Rng replay(101);
  for (std::size_t i = 0; i < d.blocks(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.block(i).data()) % 64, 0u)
        << "block " << i << " of size " << block_size;
    for (const auto v : d.block(i)) {
      ASSERT_EQ(v, static_cast<typename Field::Symbol>(replay.uniform(Field::order())));
    }
  }
}

TEST(SourceData, BlocksStartOnCacheLinesInDrawOrder) {
  // Padding between blocks must not change which values are drawn.
  for (const std::size_t block_size : {1, 3, 64, 1000, 4096}) {
    expect_aligned_blocks_in_draw_order<F>(block_size);
    expect_aligned_blocks_in_draw_order<gf::Gf2m<12>>(block_size);
  }
}

}  // namespace
}  // namespace prlc::codes
