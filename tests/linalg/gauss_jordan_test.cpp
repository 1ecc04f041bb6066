#include "linalg/gauss_jordan.h"

#include <gtest/gtest.h>

#include "gf/gf2m.h"
#include "gf/gf256.h"
#include "util/random.h"

namespace prlc::linalg {
namespace {

using F = gf::Gf256;
using M = Matrix<F>;

/// Validate the structural RREF invariants: unit pivots, strictly
/// increasing pivot columns, pivot columns clear elsewhere, zero rows at
/// the bottom.
template <gf::FieldPolicy Field>
void expect_is_rref(const Matrix<Field>& m, const RrefInfo& info) {
  ASSERT_EQ(info.pivot_cols.size(), info.rank);
  for (std::size_t i = 0; i < info.rank; ++i) {
    const std::size_t col = info.pivot_cols[i];
    if (i > 0) {
      EXPECT_GT(col, info.pivot_cols[i - 1]);
    }
    EXPECT_EQ(m.at(i, col), 1);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (r != i) {
        EXPECT_EQ(m.at(r, col), 0) << "col " << col << " row " << r;
      }
    }
    // Leading zeros before the pivot.
    for (std::size_t c = 0; c < col; ++c) EXPECT_EQ(m.at(i, c), 0);
  }
  for (std::size_t r = info.rank; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) EXPECT_EQ(m.at(r, c), 0);
  }
}

TEST(GaussJordan, IdentityIsFixedPoint) {
  M id = M::identity(5);
  const auto info = rref(id);
  EXPECT_EQ(info.rank, 5u);
  EXPECT_EQ(id, M::identity(5));
}

TEST(GaussJordan, RandomSquareIsFullRankWithHighProbability) {
  Rng rng(61);
  std::size_t full = 0;
  for (int t = 0; t < 50; ++t) {
    if (rank(M::random(20, 20, rng)) == 20) ++full;
  }
  // Pr(full rank) over GF(256) is prod (1 - 256^-k) > 0.996.
  EXPECT_GE(full, 47u);
}

TEST(GaussJordan, RrefStructureOnRandomRectangular) {
  Rng rng(62);
  for (int t = 0; t < 20; ++t) {
    M m = M::random(8, 12, rng);
    const auto info = rref(m);
    expect_is_rref(m, info);
  }
}

TEST(GaussJordan, RrefIsIdempotent) {
  Rng rng(63);
  M m = M::random(6, 9, rng);
  rref(m);
  M again = m;
  rref(again);
  EXPECT_EQ(again, m);
}

TEST(GaussJordan, RrefInvariantToRowShuffle) {
  // The paper leans on RREF uniqueness ("the RREFs of two matrices are
  // identical if they differ only in row orders").
  Rng rng(64);
  M m = M::random(7, 10, rng);
  M shuffled(7, 10);
  std::vector<std::size_t> perm = {3, 1, 6, 0, 5, 2, 4};
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 10; ++c) shuffled.at(r, c) = m.at(perm[r], c);
  }
  rref(m);
  rref(shuffled);
  EXPECT_EQ(m, shuffled);
}

TEST(GaussJordan, DuplicateRowsReduceRank) {
  Rng rng(65);
  M m = M::random(1, 6, rng);
  const auto row = m.row(0);
  M stacked;
  stacked.append_row(row);
  stacked.append_row(row);
  M third = M::random(1, 6, rng);
  stacked.append_row(third.row(0));
  EXPECT_EQ(rank(stacked), 2u);
}

TEST(GaussJordan, RankOfZeroMatrixIsZero) {
  M z(4, 4);
  EXPECT_EQ(rank(z), 0u);
}

TEST(GaussJordan, RhsTracksRowOperations) {
  // Solving A X = I via rhs gives the inverse.
  Rng rng(67);
  M a = M::random(8, 8, rng);
  const M original = a;
  M rhs = M::identity(8);
  const auto info = rref(a, &rhs);
  if (info.rank == 8) {
    EXPECT_EQ(original.multiply(rhs), M::identity(8));
  }
}

TEST(GaussJordan, SolvedPrefixFullSystem) {
  Rng rng(68);
  M m = M::random(6, 6, rng);
  const auto info = rref(m);
  if (info.rank == 6) {
    EXPECT_EQ(solved_prefix(m, info), 6u);
  }
}

TEST(GaussJordan, SolvedPrefixPartialTriangular) {
  // Three equations over five unknowns: x0 known, x1+x2 mixed, x3 known.
  M m(3, 5);
  m.at(0, 0) = 1;
  m.at(1, 1) = 1;
  m.at(1, 2) = 5;
  m.at(2, 3) = 1;
  const auto info = rref(m);
  EXPECT_EQ(info.rank, 3u);
  // Only x0 is a decoded prefix: x1 is entangled with x2.
  EXPECT_EQ(solved_prefix(m, info), 1u);
}

TEST(GaussJordan, SolvedPrefixPaperFigure2) {
  // Fig. 2 of the paper: five coded blocks over five unknowns where the
  // first three unknowns decode. Construct an analogous matrix:
  // rows with supports {1}, {1,2}, {1..3}, {1..5}, {1..5}.
  Rng rng(69);
  M m(5, 5);
  auto fill = [&](std::size_t row, std::size_t width) {
    for (std::size_t c = 0; c < width; ++c) {
      m.at(row, c) = static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
  };
  fill(0, 1);
  fill(1, 2);
  fill(2, 3);
  fill(3, 5);
  fill(4, 5);
  const auto info = rref(m);
  // Generic coefficients: ranks are full, the 3x3 corner inverts, and the
  // two wide rows cannot separate unknowns 4 and 5.
  ASSERT_EQ(info.rank, 5u);
  EXPECT_EQ(solved_prefix(m, info), 5u);
}

TEST(GaussJordan, SolvedPrefixUnderdetermined) {
  Rng rng(70);
  M m(4, 5);
  auto fill = [&](std::size_t row, std::size_t width) {
    for (std::size_t c = 0; c < width; ++c) {
      m.at(row, c) = static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
  };
  fill(0, 1);
  fill(1, 2);
  fill(2, 3);
  fill(3, 5);  // only one equation touching unknowns 4,5 -> they stay coupled
  const auto info = rref(m);
  ASSERT_EQ(info.rank, 4u);
  EXPECT_EQ(solved_prefix(m, info), 3u);
}

TEST(GaussJordan, WorksOverGf2) {
  using F2 = gf::Gf2;
  Matrix<F2> m(3, 3);
  // [[1,1,0],[0,1,1],[1,0,1]] over GF(2) is singular (rows sum to 0).
  m.at(0, 0) = 1;
  m.at(0, 1) = 1;
  m.at(1, 1) = 1;
  m.at(1, 2) = 1;
  m.at(2, 0) = 1;
  m.at(2, 2) = 1;
  EXPECT_EQ(rank(m), 2u);
}

}  // namespace
}  // namespace prlc::linalg
