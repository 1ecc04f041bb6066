// Differential tests for the vectorized GF(2^8) kernels: every compiled
// variant must agree with the reference byte-wise product-table loop on
// randomized spans, including unaligned offsets and the lengths around
// every vector-width boundary where tail handling lives (32/64 bytes for
// AVX2, 64/256 bytes and the masked tail for GFNI).
#include "gf/gf256_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gf/gf256.h"
#include "util/random.h"

namespace prlc::gf {
namespace {

// Lengths straddling the 32/64-byte AVX2 and 64/256-byte GFNI strides and
// the tail after them, plus 0/1 and a large one.
constexpr std::size_t kLengths[] = {0,  1,  7,  8,  9,   15,  16,  17,  31,   32,
                                    33, 63, 64, 65, 127, 128, 129, 257, 4096, 4097};
// Start offsets into the backing buffers — misaligns the spans relative to
// every vector width the kernels use.
constexpr std::size_t kOffsets[] = {0, 1, 3, 13};

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) v = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

class Gf256KernelsTest : public ::testing::TestWithParam<Gf256Kernel> {};

TEST_P(Gf256KernelsTest, AxpyMatchesReference) {
  const Gf256Kernel kernel = GetParam();
  if (!gf256_kernel_runtime_ok(kernel)) {
    GTEST_SKIP() << gf256_kernel_name(kernel) << " not supported on this CPU";
  }
  const Gf256KernelOps& ops = gf256_kernel_ops(kernel);
  Rng rng(101);
  for (std::size_t offset : kOffsets) {
    for (std::size_t len : kLengths) {
      auto x = random_bytes(offset + len, rng);
      auto y = random_bytes(offset + len, rng);
      for (std::uint8_t a :
           {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{0x1D},
            static_cast<std::uint8_t>(rng.uniform(256)), std::uint8_t{255}}) {
        auto expect = y;
        for (std::size_t i = 0; i < len; ++i) {
          expect[offset + i] ^= Gf256::mul(a, x[offset + i]);
        }
        auto got = y;
        ops.axpy(got.data() + offset, x.data() + offset, a, len);
        ASSERT_EQ(got, expect) << gf256_kernel_name(kernel) << " a=" << int(a)
                               << " len=" << len << " offset=" << offset;
      }
    }
  }
}

TEST_P(Gf256KernelsTest, MulRegionMatchesReferenceIncludingAliased) {
  const Gf256Kernel kernel = GetParam();
  if (!gf256_kernel_runtime_ok(kernel)) {
    GTEST_SKIP() << gf256_kernel_name(kernel) << " not supported on this CPU";
  }
  const Gf256KernelOps& ops = gf256_kernel_ops(kernel);
  Rng rng(102);
  for (std::size_t offset : kOffsets) {
    for (std::size_t len : kLengths) {
      const auto src = random_bytes(offset + len, rng);
      for (std::uint8_t a : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{0x53},
                             static_cast<std::uint8_t>(rng.uniform(256))}) {
        std::vector<std::uint8_t> expect(len);
        for (std::size_t i = 0; i < len; ++i) expect[i] = Gf256::mul(a, src[offset + i]);

        std::vector<std::uint8_t> dst(len, 0xEE);
        ops.mul_region(dst.data(), src.data() + offset, a, len);
        ASSERT_EQ(dst, expect) << gf256_kernel_name(kernel) << " a=" << int(a)
                               << " len=" << len << " offset=" << offset;

        // Aliased call (dst == src) is the scale() path.
        auto aliased = src;
        ops.mul_region(aliased.data() + offset, aliased.data() + offset, a, len);
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(), aliased.begin() + offset))
            << gf256_kernel_name(kernel) << " aliased a=" << int(a) << " len=" << len;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCompiledVariants, Gf256KernelsTest,
                         ::testing::ValuesIn(gf256_compiled_kernels()),
                         [](const ::testing::TestParamInfo<Gf256Kernel>& info) {
                           return gf256_kernel_name(info.param);
                         });

TEST(Gf256Kernels, DispatchPicksTheBestSupportedVariant) {
  // Preference order: reference < avx2 < gfni; x86 builds compile all three.
  const std::vector<Gf256Kernel> compiled = gf256_compiled_kernels();
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(compiled, (std::vector<Gf256Kernel>{Gf256Kernel::kReference, Gf256Kernel::kAvx2,
                                                Gf256Kernel::kGfni}));
#else
  EXPECT_EQ(compiled, std::vector<Gf256Kernel>{Gf256Kernel::kReference});
#endif
  const Gf256Kernel active = gf256_active_kernel();
  EXPECT_TRUE(gf256_kernel_runtime_ok(active)) << gf256_kernel_name(active);
  for (const Gf256Kernel k : compiled) {
    if (static_cast<int>(k) > static_cast<int>(active)) {
      EXPECT_FALSE(gf256_kernel_runtime_ok(k)) << gf256_kernel_name(k);
    }
  }
  EXPECT_STREQ(gf256_active_ops().name, gf256_kernel_name(active));
}

TEST(Gf256Kernels, AxpyBatchMatchesPerRowAxpy) {
  Rng rng(105);
  // Several whole tiles plus an unaligned tail, so every tile boundary and
  // the short last tile are exercised.
  const std::size_t n = 3 * kGf256TileBytes + 37;
  const std::size_t rows = 17;
  const auto x = random_bytes(n, rng);
  std::vector<std::vector<std::uint8_t>> targets;
  std::vector<std::uint8_t> coeffs;
  for (std::size_t r = 0; r < rows; ++r) {
    targets.push_back(random_bytes(n, rng));
    coeffs.push_back(static_cast<std::uint8_t>(r % 5 == 0 ? 0 : rng.uniform(256)));
  }
  auto expect = targets;
  for (std::size_t r = 0; r < rows; ++r) {
    Gf256::axpy(std::span<std::uint8_t>(expect[r]), coeffs[r],
                std::span<const std::uint8_t>(x));
  }
  std::vector<std::uint8_t*> ptrs;
  for (auto& t : targets) ptrs.push_back(t.data());
  Gf256::axpy_batch(std::span<std::uint8_t* const>(ptrs),
                    std::span<const std::uint8_t>(coeffs),
                    std::span<const std::uint8_t>(x));
  for (std::size_t r = 0; r < rows; ++r) EXPECT_EQ(targets[r], expect[r]) << "row " << r;
}

TEST(Gf256Kernels, CombineBatchMatchesReferenceAxpys) {
  const Gf256KernelOps& ref = gf256_kernel_ops(Gf256Kernel::kReference);
  Rng rng(106);
  // Source counts from none to the store's 64; lengths below, at and past
  // a vector stride and past the tile boundary with an unaligned tail;
  // misaligned sources; rows with no nonzero coefficient, a single term
  // of 1, all terms nonzero and scattered zeros.
  for (const std::size_t k : {0, 1, 2, 17, 64}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{65},
                                std::size_t{4097}, 3 * kGf256TileBytes + 37}) {
      for (const std::size_t offset : kOffsets) {
        std::vector<std::vector<std::uint8_t>> sources;
        std::vector<const std::uint8_t*> srcs;
        for (std::size_t j = 0; j < k; ++j) {
          sources.push_back(random_bytes(offset + n, rng));
          srcs.push_back(sources.back().data() + offset);
        }
        std::vector<std::vector<std::uint8_t>> coeffs(4, std::vector<std::uint8_t>(k, 0));
        if (k > 0) coeffs[1][k - 1] = 1;
        for (std::size_t j = 0; j < k; ++j) {
          coeffs[2][j] = static_cast<std::uint8_t>(1 + rng.uniform(255));
          coeffs[3][j] = j % 3 == 0 ? 0 : static_cast<std::uint8_t>(rng.uniform(256));
        }
        std::vector<const std::uint8_t*> coeff_rows;
        std::vector<std::vector<std::uint8_t>> expect;
        for (const auto& row : coeffs) {
          coeff_rows.push_back(row.data());
          std::vector<std::uint8_t>& want = expect.emplace_back(n, 0);
          for (std::size_t j = 0; j < k; ++j) ref.axpy(want.data(), srcs[j], row[j], n);
        }
        // Poisoned destinations: every byte must be overwritten.
        std::vector<std::vector<std::uint8_t>> got(coeffs.size(),
                                                   std::vector<std::uint8_t>(n, 0xEE));
        std::vector<std::uint8_t*> dsts;
        for (auto& row : got) dsts.push_back(row.data());
        gf256_combine_batch(dsts.data(), coeff_rows.data(), dsts.size(), srcs.data(), k, n);
        for (std::size_t r = 0; r < got.size(); ++r) {
          ASSERT_EQ(got[r], expect[r]) << "k " << k << " n " << n << " offset " << offset
                                       << " row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace prlc::gf
