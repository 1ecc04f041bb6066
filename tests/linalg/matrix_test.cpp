#include "linalg/matrix.h"

#include <gtest/gtest.h>

#include "gf/gf256.h"
#include "util/check.h"

namespace prlc::linalg {
namespace {

using F = gf::Gf256;
using M = Matrix<F>;

TEST(Matrix, ZeroInitialized) {
  M m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m.at(r, c), 0);
  }
}

TEST(Matrix, IndexBoundsChecked) {
  M m(2, 2);
  EXPECT_THROW(m.at(2, 0), PreconditionError);
  EXPECT_THROW(m.at(0, 2), PreconditionError);
  EXPECT_THROW(m.row(2), PreconditionError);
}

TEST(Matrix, RowSpanWritesThrough) {
  M m(2, 3);
  auto row = m.row(1);
  row[2] = 9;
  EXPECT_EQ(m.at(1, 2), 9);
}

TEST(Matrix, IdentityProperties) {
  const M id = M::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(id.at(r, c), r == c ? 1 : 0);
  }
}

TEST(Matrix, IdentityIsMultiplicativeIdentity) {
  Rng rng(51);
  const M a = M::random(4, 4, rng);
  EXPECT_EQ(a.multiply(M::identity(4)), a);
  EXPECT_EQ(M::identity(4).multiply(a), a);
}

TEST(Matrix, MultiplyShapeChecked) {
  M a(2, 3);
  M b(4, 2);
  EXPECT_THROW(a.multiply(b), PreconditionError);
}

TEST(Matrix, MultiplyMatchesManualComputation) {
  M a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  M b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  const M c = a.multiply(b);
  auto expect = [&](std::size_t i, std::size_t j) {
    return F::add(F::mul(a.at(i, 0), b.at(0, j)), F::mul(a.at(i, 1), b.at(1, j)));
  };
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(c.at(i, j), expect(i, j));
  }
}

TEST(Matrix, MultiplyAssociativeSampled) {
  Rng rng(52);
  const M a = M::random(3, 5, rng);
  const M b = M::random(5, 4, rng);
  const M c = M::random(4, 2, rng);
  EXPECT_EQ(a.multiply(b).multiply(c), a.multiply(b.multiply(c)));
}

TEST(Matrix, AppendRowGrowsAndChecksWidth) {
  M m;
  const std::vector<std::uint8_t> r1 = {1, 2, 3};
  m.append_row(r1);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 3u);
  const std::vector<std::uint8_t> bad = {1, 2};
  EXPECT_THROW(m.append_row(bad), PreconditionError);
  const std::vector<std::uint8_t> r2 = {4, 5, 6};
  m.append_row(r2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.at(1, 2), 6);
}

TEST(Matrix, RandomIsDeterministicPerSeed) {
  Rng r1(99);
  Rng r2(99);
  EXPECT_EQ(M::random(5, 5, r1), M::random(5, 5, r2));
}

}  // namespace
}  // namespace prlc::linalg
