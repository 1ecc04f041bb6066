// CRC-32 known answers, plus the differential battery for the kernel
// tiers: every compiled tier the CPU supports must return exactly the
// reference value on every length across the fold boundaries, on large
// random lengths, at unaligned starts and when chained from a seed.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "util/random.h"

namespace prlc {
namespace {

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, SensitiveToEveryBit) {
  auto data = bytes("hello, prlc");
  const auto base = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto copy = data;
      copy[i] ^= static_cast<std::uint8_t>(1 << bit);
      ASSERT_NE(crc32(copy), base) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32, ChainingMatchesOneShot) {
  const auto whole = bytes("first-half|second-half");
  const auto left = bytes("first-half|");
  const auto right = bytes("second-half");
  EXPECT_EQ(crc32(right, crc32(left)), crc32(whole));
}

TEST(Crc32, OrderMatters) {
  EXPECT_NE(crc32(bytes("ab")), crc32(bytes("ba")));
}

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) v = static_cast<std::uint8_t>(rng());
  return out;
}

class Crc32TierTest : public ::testing::TestWithParam<Crc32Kernel> {
 protected:
  void SetUp() override {
    if (!crc32_kernel_runtime_ok(GetParam())) {
      GTEST_SKIP() << crc32_kernel_name(GetParam()) << " not supported on this CPU";
    }
  }
  const Crc32KernelOps& ops() const { return crc32_kernel_ops(GetParam()); }
  const Crc32KernelOps& reference() const { return crc32_kernel_ops(Crc32Kernel::kReference); }
};

TEST_P(Crc32TierTest, KnownVectors) {
  EXPECT_EQ(ops().crc32(bytes(""), 0), 0x00000000u);
  EXPECT_EQ(ops().crc32(bytes("123456789"), 0), 0xCBF43926u);
  EXPECT_EQ(ops().crc32(bytes("The quick brown fox jumps over the lazy dog"), 0), 0x414FA339u);
}

TEST_P(Crc32TierTest, EveryShortLengthAtEveryOffsetMatchesReference) {
  // 0-130 covers the slicing step (8), one lane (16), the 4-lane fold (64)
  // and their tails; offsets 0-7 start the loads off word alignment.
  Rng rng(41);
  const auto buf = random_bytes(130 + 8, rng);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 130; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      const std::uint32_t seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(ops().crc32(data, seed), reference().crc32(data, seed))
          << "len=" << len << " offset=" << offset;
    }
  }
}

TEST_P(Crc32TierTest, LongRandomLengthsMatchReference) {
  Rng rng(42);
  const auto buf = random_bytes((64 << 10) + 8, rng);
  for (int round = 0; round < 60; ++round) {
    const std::size_t offset = rng.uniform(8);
    const std::size_t len = rng.uniform((64 << 10) + 1);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    ASSERT_EQ(ops().crc32(data, 0), reference().crc32(data, 0))
        << "len=" << len << " offset=" << offset;
  }
  // The wide folds' exact block boundaries.
  for (const std::size_t len : {255, 256, 257, 511, 512, 513, 1024, 32768}) {
    const std::span<const std::uint8_t> data(buf.data(), len);
    ASSERT_EQ(ops().crc32(data, 0), reference().crc32(data, 0)) << "len=" << len;
  }
}

TEST_P(Crc32TierTest, ChainedSeedsAtRandomSplitsMatchOneShot) {
  Rng rng(43);
  for (int round = 0; round < 200; ++round) {
    const auto data = random_bytes(rng.uniform(4096), rng);
    const std::size_t split = rng.uniform(data.size() + 1);
    const std::span<const std::uint8_t> all(data);
    const std::uint32_t left = ops().crc32(all.first(split), 0);
    ASSERT_EQ(ops().crc32(all.subspan(split), left), reference().crc32(all, 0))
        << "size=" << data.size() << " split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCompiledTiers, Crc32TierTest,
                         ::testing::ValuesIn(crc32_compiled_kernels()),
                         [](const ::testing::TestParamInfo<Crc32Kernel>& info) {
                           return crc32_kernel_name(info.param);
                         });

TEST(Crc32, DispatchPicksTheBestSupportedTier) {
  const Crc32Kernel active = crc32_active_kernel();
  EXPECT_TRUE(crc32_kernel_runtime_ok(active));
  for (const Crc32Kernel k : crc32_compiled_kernels()) {
    if (static_cast<int>(k) > static_cast<int>(active)) {
      EXPECT_FALSE(crc32_kernel_runtime_ok(k));
    }
  }
  EXPECT_NE(active, Crc32Kernel::kReference);  // the oracle is never dispatched
}

}  // namespace
}  // namespace prlc
