#include "linalg/progressive_decoder.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "gf/gf2m.h"
#include "gf/gf256.h"
#include "linalg/gauss_jordan.h"
#include "linalg/matrix.h"
#include "util/random.h"

namespace prlc::linalg {
namespace {

using F = gf::Gf256;

std::vector<std::uint8_t> random_row(std::size_t n, Rng& rng, std::size_t width = 0) {
  std::vector<std::uint8_t> row(n, 0);
  const std::size_t w = width == 0 ? n : width;
  for (std::size_t i = 0; i < w; ++i) row[i] = static_cast<std::uint8_t>(rng.uniform(256));
  return row;
}

TEST(ProgressiveDecoder, RejectsZeroUnknowns) {
  EXPECT_THROW(ProgressiveDecoder<F>(0), PreconditionError);
}

TEST(ProgressiveDecoder, RankGrowsOnlyOnInnovativeRows) {
  Rng rng(71);
  ProgressiveDecoder<F> d(5);
  const auto r1 = random_row(5, rng);
  EXPECT_TRUE(d.add(r1));
  EXPECT_EQ(d.rank(), 1u);
  // The same row again is dependent.
  EXPECT_FALSE(d.add(r1));
  EXPECT_EQ(d.rank(), 1u);
  // A scalar multiple is dependent too.
  auto scaled = r1;
  F::scale(std::span<std::uint8_t>(scaled), 7);
  EXPECT_FALSE(d.add(scaled));
  EXPECT_EQ(d.rank(), 1u);
  EXPECT_EQ(d.equations_seen(), 3u);
}

TEST(ProgressiveDecoder, ZeroRowIsNotInnovative) {
  ProgressiveDecoder<F> d(4);
  const std::vector<std::uint8_t> zero(4, 0);
  EXPECT_FALSE(d.add(zero));
  EXPECT_EQ(d.rank(), 0u);
}

TEST(ProgressiveDecoder, WidthMismatchThrows) {
  ProgressiveDecoder<F> d(4);
  const std::vector<std::uint8_t> bad(3, 1);
  EXPECT_THROW(d.add(bad), PreconditionError);
}

TEST(ProgressiveDecoder, FullSystemDecodesAllUnknowns) {
  Rng rng(72);
  const std::size_t n = 30;
  ProgressiveDecoder<F> d(n);
  std::size_t added = 0;
  while (d.rank() < n) {
    d.add(random_row(n, rng));
    ++added;
    ASSERT_LT(added, 3 * n);  // random rows reach full rank quickly
  }
  EXPECT_EQ(d.decoded_prefix(), n);
  EXPECT_EQ(d.decoded_count(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(d.is_decoded(i));
}

TEST(ProgressiveDecoder, PayloadRecoversSolution) {
  // Build a known solution x; feed rows (a_i, a_i . x); decoded payloads
  // must equal x_i for every solved unknown.
  Rng rng(73);
  const std::size_t n = 12;
  const std::size_t payload = 5;
  std::vector<std::vector<std::uint8_t>> x(n);
  for (auto& blk : x) {
    blk.resize(payload);
    for (auto& v : blk) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  ProgressiveDecoder<F> d(n, payload);
  while (d.rank() < n) {
    const auto coeffs = random_row(n, rng);
    std::vector<std::uint8_t> rhs(payload, 0);
    for (std::size_t j = 0; j < n; ++j) {
      F::axpy(std::span<std::uint8_t>(rhs), coeffs[j], x[j]);
    }
    d.add(coeffs, rhs);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(d.is_decoded(i));
    const auto got = d.solution(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), x[i].begin(), x[i].end())) << i;
    // Payload rows start on a cache line, so no kernel load splits one.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(got.data()) % 64, 0u) << i;
  }
}

TEST(ProgressiveDecoder, PartialPayloadRecoveryOnTriangularRows) {
  // Rows restricted to prefixes: width-1 row solves x0 immediately.
  Rng rng(74);
  const std::size_t n = 6;
  const std::size_t payload = 3;
  std::vector<std::vector<std::uint8_t>> x(n);
  for (auto& blk : x) {
    blk.resize(payload);
    for (auto& v : blk) v = static_cast<std::uint8_t>(rng.uniform(256));
  }
  auto make = [&](std::size_t width) {
    auto coeffs = random_row(n, rng, width);
    coeffs[width - 1] = static_cast<std::uint8_t>(1 + rng.uniform(255));  // ensure width
    std::vector<std::uint8_t> rhs(payload, 0);
    for (std::size_t j = 0; j < n; ++j) F::axpy(std::span<std::uint8_t>(rhs), coeffs[j], x[j]);
    return std::pair{coeffs, rhs};
  };
  ProgressiveDecoder<F> d(n, payload);
  auto [c1, r1] = make(1);
  d.add(c1, r1);
  EXPECT_EQ(d.decoded_prefix(), 1u);
  const auto got = d.solution(0);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), x[0].begin(), x[0].end()));
  // A width-3 row alone cannot decode x1 or x2.
  auto [c3, r3] = make(3);
  d.add(c3, r3);
  EXPECT_EQ(d.decoded_prefix(), 1u);
  // Adding a width-2 row completes the 3x3 triangle: all of x0..x2 decode.
  auto [c2, r2] = make(2);
  d.add(c2, r2);
  EXPECT_EQ(d.decoded_prefix(), 3u);
}

TEST(ProgressiveDecoder, MatchesBatchRrefSolvedPrefix) {
  // Online and batch Gauss-Jordan must agree on the decoded prefix at
  // every step (RREF uniqueness).
  Rng rng(75);
  const std::size_t n = 15;
  for (int trial = 0; trial < 10; ++trial) {
    ProgressiveDecoder<F> online(n);
    Matrix<F> batch;
    for (std::size_t step = 0; step < 2 * n; ++step) {
      // Rows with random prefix widths exercise the triangular paths.
      const std::size_t width = 1 + rng.uniform(n);
      auto row = random_row(n, rng, width);
      row[width - 1] = static_cast<std::uint8_t>(1 + rng.uniform(255));
      online.add(row);
      batch.append_row(row);
      Matrix<F> copy = batch;
      const auto info = rref(copy);
      ASSERT_EQ(online.rank(), info.rank);
      ASSERT_EQ(online.decoded_prefix(), solved_prefix(copy, info))
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(ProgressiveDecoder, DecodedPrefixIsMonotone) {
  Rng rng(76);
  const std::size_t n = 20;
  ProgressiveDecoder<F> d(n);
  std::size_t last = 0;
  for (std::size_t step = 0; step < 3 * n; ++step) {
    const std::size_t width = 1 + rng.uniform(n);
    auto row = random_row(n, rng, width);
    d.add(row);
    EXPECT_GE(d.decoded_prefix(), last);
    last = d.decoded_prefix();
  }
}

TEST(ProgressiveDecoder, DecodedCountCanExceedPrefix) {
  // Solve unknown 2 without unknowns 0,1: prefix stays 0 but count is 1.
  ProgressiveDecoder<F> d(3);
  std::vector<std::uint8_t> row = {0, 0, 1};
  d.add(row);
  EXPECT_EQ(d.decoded_prefix(), 0u);
  EXPECT_EQ(d.decoded_count(), 1u);
  EXPECT_TRUE(d.is_decoded(2));
  EXPECT_FALSE(d.is_decoded(0));
}

TEST(ProgressiveDecoder, SolutionRequiresPayloadsAndDecodedState) {
  ProgressiveDecoder<F> no_payload(3);
  std::vector<std::uint8_t> row = {1, 0, 0};
  no_payload.add(row);
  EXPECT_THROW(no_payload.solution(0), PreconditionError);

  ProgressiveDecoder<F> with_payload(3, 2);
  EXPECT_THROW(with_payload.solution(0), PreconditionError);  // nothing decoded yet
}

TEST(ProgressiveDecoder, RrefInvariantHoldsAfterEveryInsertion) {
  // After every add() the stored rows must form a reduced row-echelon
  // form: each pivot row carries a unit pivot, and every *other* stored
  // row is zero at that pivot column. 500 randomized insertions with
  // payloads attached exercise the batched back-elimination path (the
  // payload batch included) far past full rank.
  Rng rng(78);
  const std::size_t n = 60;
  const std::size_t payload = 24;
  ProgressiveDecoder<F> d(n, payload);
  for (std::size_t step = 0; step < 500; ++step) {
    // Mix of PLC-style prefix-support rows and full-width rows.
    const std::size_t width = 1 + rng.uniform(n);
    const auto coeffs = random_row(n, rng, rng.bernoulli(0.5) ? width : n);
    std::vector<std::uint8_t> pay(payload);
    for (auto& v : pay) v = static_cast<std::uint8_t>(rng.uniform(256));
    d.add(coeffs, pay);

    for (std::size_t p = 0; p < n; ++p) {
      if (!d.has_pivot(p)) continue;
      ASSERT_EQ(d.row_coefficient(p, p), 1)
          << "step " << step << ": pivot " << p << " not normalized";
      // Support bound is tight: the last in-window coefficient is nonzero.
      const std::size_t end = d.row_support_end(p);
      ASSERT_GT(end, p);
      ASSERT_NE(d.row_coefficient(p, end - 1), 0)
          << "step " << step << ": pivot " << p << " stale support bound";
      for (std::size_t q = 0; q < n; ++q) {
        if (q == p || !d.has_pivot(q)) continue;
        ASSERT_EQ(d.row_coefficient(p, q), 0)
            << "step " << step << ": row " << p << " nonzero at pivot column " << q;
      }
    }
  }
  EXPECT_EQ(d.rank(), n);
  EXPECT_EQ(d.decoded_prefix(), n);
}

TEST(ProgressiveDecoder, SupportBoundTightensAfterBackElimination) {
  // Regression: Row::end used to only grow. [1,1,1,1] back-eliminated by
  // [0,1,1,1] collapses to the unit vector e0 — the support bound must
  // come back down to pivot+1 and the unknown must count as decoded.
  ProgressiveDecoder<F> d(4);
  EXPECT_TRUE(d.add(std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(d.row_support_end(0), 4u);
  EXPECT_FALSE(d.is_decoded(0));
  EXPECT_TRUE(d.add(std::vector<std::uint8_t>{0, 1, 1, 1}));
  EXPECT_EQ(d.row_support_end(0), 1u);
  EXPECT_TRUE(d.is_decoded(0));
  EXPECT_EQ(d.decoded_prefix(), 1u);
}

TEST(ProgressiveDecoder, SparseAddValidatesInput) {
  ProgressiveDecoder<F> d(8);
  const std::vector<std::uint8_t> vals2 = {1, 2};
  // Length mismatch.
  EXPECT_THROW(d.add_sparse(std::vector<std::uint32_t>{0}, vals2), PreconditionError);
  // Out of range.
  EXPECT_THROW(d.add_sparse(std::vector<std::uint32_t>{3, 8}, vals2), PreconditionError);
  // Not strictly increasing (duplicates included).
  EXPECT_THROW(d.add_sparse(std::vector<std::uint32_t>{5, 5}, vals2), PreconditionError);
  EXPECT_THROW(d.add_sparse(std::vector<std::uint32_t>{5, 3}, vals2), PreconditionError);
  // Explicit zeros are not allowed in sparse form.
  EXPECT_THROW(d.add_sparse(std::vector<std::uint32_t>{1, 2},
                            std::vector<std::uint8_t>{1, 0}),
               PreconditionError);
  EXPECT_EQ(d.rank(), 0u);
}

TEST(ProgressiveDecoder, SparseAddMatchesDenseAdd) {
  // Feeding the same equations through add() and add_sparse() must give
  // identical state after every insertion (rank, prefix, verdicts).
  Rng rng(79);
  const std::size_t n = 40;
  const std::size_t payload = 9;
  ProgressiveDecoder<F> dense(n, payload);
  ProgressiveDecoder<F> sparse(n, payload);
  for (std::size_t step = 0; step < 4 * n; ++step) {
    std::vector<std::uint8_t> coeffs(n, 0);
    const std::size_t nnz = 1 + rng.uniform(6);
    for (std::size_t k = 0; k < nnz; ++k) {
      coeffs[rng.uniform(n)] = static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    std::vector<std::uint8_t> pay(payload);
    for (auto& v : pay) v = static_cast<std::uint8_t>(rng.uniform(256));
    std::vector<std::uint32_t> idx;
    std::vector<std::uint8_t> val;
    for (std::size_t j = 0; j < n; ++j) {
      if (coeffs[j] != 0) {
        idx.push_back(static_cast<std::uint32_t>(j));
        val.push_back(coeffs[j]);
      }
    }
    const bool a = dense.add(coeffs, pay);
    const bool b = sparse.add_sparse(idx, val, pay);
    ASSERT_EQ(a, b) << "step " << step;
    ASSERT_EQ(dense.rank(), sparse.rank());
    ASSERT_EQ(dense.decoded_prefix(), sparse.decoded_prefix());
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(dense.is_decoded(i), sparse.is_decoded(i)) << i;
    if (!dense.is_decoded(i)) continue;
    const auto x = dense.solution(i);
    const auto y = sparse.solution(i);
    ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end())) << i;
  }
}

TEST(ProgressiveDecoder, StatsTrackPeelAndStorage) {
  // Singleton equations decode unknowns directly; equations referencing
  // decoded unknowns peel in O(1). The stats surface both.
  ProgressiveDecoder<F> d(16);
  const std::vector<std::uint32_t> i0 = {0};
  const std::vector<std::uint8_t> v0 = {5};
  EXPECT_TRUE(d.add_sparse(i0, v0));
  const std::vector<std::uint32_t> i1 = {0, 1};
  const std::vector<std::uint8_t> v1 = {3, 7};
  EXPECT_TRUE(d.add_sparse(i1, v1));  // peels against the decoded x0
  const auto s = d.stats();
  EXPECT_GE(s.peel_ops, 1u);
  EXPECT_EQ(s.sparse_rows + s.dense_rows, 2u);
  EXPECT_EQ(d.decoded_prefix(), 2u);
}

TEST(ProgressiveDecoder, WorksOverGf16) {
  using F16 = gf::Gf16;
  Rng rng(77);
  const std::size_t n = 10;
  ProgressiveDecoder<F16> d(n);
  std::size_t added = 0;
  while (d.rank() < n && added < 200) {
    std::vector<std::uint16_t> row(n);
    for (auto& v : row) v = static_cast<std::uint16_t>(rng.uniform(F16::order()));
    d.add(row);
    ++added;
  }
  EXPECT_EQ(d.rank(), n);
  EXPECT_EQ(d.decoded_prefix(), n);
}

}  // namespace
}  // namespace prlc::linalg
