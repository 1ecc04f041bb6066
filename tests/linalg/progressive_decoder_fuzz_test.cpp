// Differential fuzz of the progressive decoder.
//
// Three implementations of the same linear algebra are driven with the
// same equation stream and must agree everywhere:
//   * ProgressiveDecoder fed dense coefficient vectors,
//   * ProgressiveDecoder fed the equations in sparse (index, value) form,
//   * batch Gauss-Jordan rref as the ground-truth reference.
// Payloads are generated from a known solution x, so recovered payload
// bytes are checked against the truth, not just cross-checked. Mixes of
// peelable singletons, O(ln n)-sparse rows, PLC-style prefix rows, and
// dense rows exercise peeling, fill-in, window growth and tightening, and
// the batched back-elimination; unaligned payload sizes exercise the SIMD
// kernels' scalar tails.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "gf/gf256.h"
#include "gf/gf2m.h"
#include "linalg/gauss_jordan.h"
#include "linalg/matrix.h"
#include "linalg/progressive_decoder.h"
#include "util/random.h"

namespace prlc::linalg {
namespace {

template <typename F>
struct FuzzCase {
  std::size_t n;
  std::size_t payload;
  std::uint64_t seed;
  std::size_t steps;
};

template <typename F>
void run_fuzz(const FuzzCase<F>& fc) {
  using Symbol = typename F::Symbol;
  Rng rng(fc.seed);

  // Ground-truth solution: one random payload per unknown.
  std::vector<std::vector<Symbol>> x(fc.n);
  for (auto& blk : x) {
    blk.resize(fc.payload);
    for (auto& v : blk) v = static_cast<Symbol>(rng.uniform(F::order()));
  }

  ProgressiveDecoder<F> via_dense(fc.n, fc.payload);
  ProgressiveDecoder<F> via_sparse(fc.n, fc.payload);
  Matrix<F> reference;

  for (std::size_t step = 0; step < fc.steps; ++step) {
    // Draw one equation. Mix row shapes to hit every decoder path.
    std::vector<Symbol> coeffs(fc.n, Symbol{0});
    const std::size_t shape = rng.uniform(10);
    if (shape == 0) {
      // Singleton: peels immediately.
      coeffs[rng.uniform(fc.n)] = static_cast<Symbol>(1 + rng.uniform(F::order() - 1));
    } else if (shape <= 6) {
      // O(ln n)-sparse row.
      const std::size_t nnz = 1 + rng.uniform(7);
      for (std::size_t k = 0; k < nnz; ++k) {
        coeffs[rng.uniform(fc.n)] = static_cast<Symbol>(1 + rng.uniform(F::order() - 1));
      }
    } else if (shape <= 8) {
      // PLC-style prefix row: dense over [0, width).
      const std::size_t width = 1 + rng.uniform(fc.n);
      for (std::size_t j = 0; j < width; ++j) {
        coeffs[j] = static_cast<Symbol>(rng.uniform(F::order()));
      }
      coeffs[width - 1] = static_cast<Symbol>(1 + rng.uniform(F::order() - 1));
    } else {
      // Dense full-width row: wide windows and batched back-elimination.
      bool any = false;
      for (std::size_t j = 0; j < fc.n; ++j) {
        coeffs[j] = static_cast<Symbol>(rng.uniform(F::order()));
        any = any || coeffs[j] != 0;
      }
      if (!any) coeffs[0] = 1;
    }

    std::vector<Symbol> rhs(fc.payload, Symbol{0});
    for (std::size_t j = 0; j < fc.n; ++j) {
      if (coeffs[j] != 0) F::axpy(std::span<Symbol>(rhs), coeffs[j], x[j]);
    }
    std::vector<std::uint32_t> idx;
    std::vector<Symbol> val;
    for (std::size_t j = 0; j < fc.n; ++j) {
      if (coeffs[j] != 0) {
        idx.push_back(static_cast<std::uint32_t>(j));
        val.push_back(coeffs[j]);
      }
    }
    const bool zero_row = idx.empty();

    const bool a = via_dense.add(coeffs, rhs);
    const bool b = zero_row ? via_sparse.add(coeffs, rhs)
                            : via_sparse.add_sparse(idx, val, rhs);
    ASSERT_EQ(a, b) << "innovation verdict diverged at step " << step;
    ASSERT_EQ(via_dense.rank(), via_sparse.rank()) << "step " << step;
    ASSERT_EQ(via_dense.decoded_prefix(), via_sparse.decoded_prefix()) << "step " << step;

    reference.append_row(coeffs);
    Matrix<F> copy = reference;
    const auto info = rref(copy);
    ASSERT_EQ(via_dense.rank(), info.rank) << "step " << step;
    ASSERT_EQ(via_dense.decoded_prefix(), solved_prefix(copy, info)) << "step " << step;
  }

  // Decoded payloads must equal the ground truth byte for byte.
  for (std::size_t i = 0; i < fc.n; ++i) {
    ASSERT_EQ(via_dense.is_decoded(i), via_sparse.is_decoded(i)) << i;
    if (!via_dense.is_decoded(i) || fc.payload == 0) continue;
    const auto got_d = via_dense.solution(i);
    const auto got_s = via_sparse.solution(i);
    ASSERT_TRUE(std::equal(got_d.begin(), got_d.end(), x[i].begin(), x[i].end()))
        << "dense-fed payload wrong at unknown " << i;
    ASSERT_TRUE(std::equal(got_s.begin(), got_s.end(), x[i].begin(), x[i].end()))
        << "sparse-fed payload wrong at unknown " << i;
  }
  EXPECT_EQ(via_dense.rank(), fc.n) << "fuzz case should reach full rank";
}

TEST(ProgressiveDecoderFuzz, Gf256UnalignedPayloads) {
  // Payload widths straddle SIMD lane boundaries (1, 7, 33 bytes).
  run_fuzz<gf::Gf256>({17, 1, 9001, 80});
  run_fuzz<gf::Gf256>({64, 7, 9002, 220});
  run_fuzz<gf::Gf256>({150, 33, 9003, 450});
}

TEST(ProgressiveDecoderFuzz, Gf2Systems) {
  // GF(2): coefficients are bits, peeling degenerates to XOR chasing.
  run_fuzz<gf::Gf2>({17, 5, 9101, 120});
  run_fuzz<gf::Gf2>({64, 9, 9102, 400});
}

TEST(ProgressiveDecoderFuzz, CoefficientOnlyDecoding) {
  // payload_size 0: the decoding-curve configuration.
  run_fuzz<gf::Gf256>({64, 0, 9201, 220});
  run_fuzz<gf::Gf2>({32, 0, 9202, 200});
}

TEST(ProgressiveDecoderFuzz, MixedStreamPeelsAndStores) {
  // The mixed-shape stream above must actually exercise the peeling
  // counter and store coefficient windows — otherwise the fuzz is weaker
  // than it claims.
  Rng rng(9301);
  const std::size_t n = 120;
  ProgressiveDecoder<gf::Gf256> d(n);
  std::vector<std::uint8_t> coeffs(n, 0);
  while (d.rank() < n) {
    std::fill(coeffs.begin(), coeffs.end(), 0);
    if (rng.bernoulli(0.7)) {
      const std::size_t nnz = 1 + rng.uniform(4);
      for (std::size_t k = 0; k < nnz; ++k) {
        coeffs[rng.uniform(n)] = static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
    } else {
      for (auto& c : coeffs) c = static_cast<std::uint8_t>(rng.uniform(256));
      coeffs[0] = 1;
    }
    d.add(coeffs);
  }
  const auto s = d.stats();
  EXPECT_GT(s.peel_ops, 0u);
  EXPECT_GT(s.coef_bytes, 0u);
}

}  // namespace
}  // namespace prlc::linalg
