// Differential fuzz for the GF(2^64) homomorphic fingerprint: field
// axioms against the reference multiply, the GF(2^8) embedding against
// gf::Gf256's own product table, and the coding homomorphism
// fp(sum gamma_j s_j) = sum embed(gamma_j) fp(s_j) over random payloads,
// random (GF(2) and GF(256)) coefficients, and unaligned sizes — run
// once per kernel tier, beside a differential battery that holds every
// compiled tier the CPU supports to the reference byte loop bit for bit.
#include "util/gf64_fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gf/gf256.h"
#include "util/random.h"

namespace prlc::util {
namespace {

TEST(Gf64, FieldAxiomsOnRandomElements) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const std::uint64_t c = rng();
    EXPECT_EQ(gf64_mul(a, b), gf64_mul(b, a));
    EXPECT_EQ(gf64_mul(a, gf64_mul(b, c)), gf64_mul(gf64_mul(a, b), c));
    EXPECT_EQ(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));  // distributive
    EXPECT_EQ(gf64_mul(a, 1), a);
    EXPECT_EQ(gf64_mul(a, 0), 0u);
  }
}

TEST(Gf64, EveryNonzeroElementHasOrderDividingGroupOrder) {
  // a^(2^64-1) = 1 for a != 0 — catches any reduction-polynomial slip
  // (a non-irreducible modulus would yield zero divisors instead).
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    std::uint64_t a = rng();
    if (a == 0) a = 1;
    EXPECT_EQ(gf64_pow(a, ~std::uint64_t{0}), 1u);
  }
}

TEST(Gf64, EmbeddingIsAFieldHomomorphism) {
  // Exhaustive over all 256x256 products: embed must carry gf::Gf256's
  // multiplication (modulus 0x11D) into GF(2^64) multiplication.
  EXPECT_EQ(gf64_embed(0), 0u);
  EXPECT_EQ(gf64_embed(1), 1u);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const auto prod = gf::Gf256::mul(static_cast<std::uint8_t>(a),
                                       static_cast<std::uint8_t>(b));
      ASSERT_EQ(gf64_embed(prod),
                gf64_mul(gf64_embed(static_cast<std::uint8_t>(a)),
                         gf64_embed(static_cast<std::uint8_t>(b))))
          << "a=" << a << " b=" << b;
    }
    // Additivity (embed is GF(2)-linear by construction, assert anyway).
    ASSERT_EQ(gf64_embed(static_cast<std::uint8_t>(a ^ 0x5b)),
              gf64_embed(static_cast<std::uint8_t>(a)) ^ gf64_embed(0x5b));
  }
}

TEST(Gf64, EmbeddingIsInjective) {
  std::vector<std::uint64_t> seen;
  for (unsigned a = 0; a < 256; ++a) seen.push_back(gf64_embed(static_cast<std::uint8_t>(a)));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Gf64Fingerprint, TablesMatchReferenceMultiply) {
  const Fingerprinter fp(99);
  Rng rng(3);
  std::vector<std::uint8_t> payload(257);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  // Recompute the Horner evaluation with the slow reference multiply.
  std::uint64_t acc = 0;
  for (const std::uint8_t byte : payload) {
    acc = gf64_mul(acc, fp.point()) ^ gf64_embed(byte);
  }
  EXPECT_EQ(fp.fingerprint(payload), acc);
}

TEST(Gf64Fingerprint, SeedDeterminesPointDeterministically) {
  EXPECT_EQ(Fingerprinter(42).point(), Fingerprinter(42).point());
  EXPECT_NE(Fingerprinter(42).point(), Fingerprinter(43).point());
  EXPECT_NE(Fingerprinter(0).point(), 0u);  // the point is never zero
}

TEST(Gf64Fingerprint, DetectsSingleBitFlips) {
  const Fingerprinter fp(1234);
  Rng rng(5);
  std::vector<std::uint8_t> payload(100);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  const std::uint64_t clean = fp.fingerprint(payload);
  for (int i = 0; i < 200; ++i) {
    const std::size_t at = rng.uniform(payload.size());
    const auto mask = static_cast<std::uint8_t>(1 + rng.uniform(255));
    payload[at] ^= mask;
    EXPECT_NE(fp.fingerprint(payload), clean);
    payload[at] ^= mask;
  }
}

TEST(Gf64Fingerprint, BuildManifestCoversEveryBlock) {
  Rng rng(8);
  const std::size_t blocks = 7, size = 13;
  std::vector<std::uint8_t> source(blocks * size);
  for (auto& b : source) b = static_cast<std::uint8_t>(rng());
  const FingerprintManifest manifest = build_manifest(500, source, size);
  EXPECT_EQ(manifest.block_size, size);
  ASSERT_EQ(manifest.fingerprints.size(), blocks);
  const Fingerprinter fp(500);
  for (std::size_t j = 0; j < blocks; ++j) {
    EXPECT_EQ(manifest.fingerprints[j],
              fp.fingerprint(std::span<const std::uint8_t>(source).subspan(j * size, size)));
  }
}

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Seeds whose derived points cover both halves of the field, so the
/// kernels see evaluation points with the top bit set and clear.
std::vector<std::uint64_t> seeds_with_both_top_bits(Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> seeds;
  bool top_set = false;
  bool top_clear = false;
  while (seeds.size() < count || !top_set || !top_clear) {
    const std::uint64_t seed = rng();
    const bool top = (Fingerprinter(seed).point() >> 63) != 0;
    if (seeds.size() >= count && (top ? top_set : top_clear)) continue;
    (top ? top_set : top_clear) = true;
    seeds.push_back(seed);
  }
  return seeds;
}

class FingerprintTierTest : public ::testing::TestWithParam<FingerprintKernel> {
 protected:
  void SetUp() override {
    if (!fingerprint_kernel_runtime_ok(GetParam())) {
      GTEST_SKIP() << fingerprint_kernel_name(GetParam()) << " not supported on this CPU";
    }
  }
  const FingerprintKernelOps& ops() const { return fingerprint_kernel_ops(GetParam()); }
  const FingerprintKernelOps& reference() const {
    return fingerprint_kernel_ops(FingerprintKernel::kReference);
  }
};

TEST_P(FingerprintTierTest, EveryShortLengthAtEveryOffsetMatchesReference) {
  // 0-130 crosses the word step (8), the four-word fold (32) and the
  // 64-byte block, with every tail; offsets 0-7 misalign the loads.
  Rng rng(61);
  for (const std::uint64_t seed : seeds_with_both_top_bits(rng, 4)) {
    const Fingerprinter fp(seed);
    const auto buf = random_bytes(130 + 8, rng);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 130; ++len) {
        const std::span<const std::uint8_t> data(buf.data() + offset, len);
        ASSERT_EQ(ops().fingerprint(fp, data), reference().fingerprint(fp, data))
            << "seed=" << seed << " len=" << len << " offset=" << offset;
      }
    }
  }
}

TEST_P(FingerprintTierTest, LongRandomLengthsAndPointsMatchReference) {
  Rng rng(62);
  const auto buf = random_bytes((64 << 10) + 8, rng);
  for (const std::uint64_t seed : seeds_with_both_top_bits(rng, 24)) {
    const Fingerprinter fp(seed);
    const std::size_t offset = rng.uniform(8);
    const std::size_t len = rng.uniform((64 << 10) + 1);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    ASSERT_EQ(ops().fingerprint(fp, data), reference().fingerprint(fp, data))
        << "seed=" << seed << " len=" << len << " offset=" << offset;
  }
}

TEST_P(FingerprintTierTest, AllOnesAndAllZeroPayloadsMatchReference) {
  const Fingerprinter fp(5);
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> data(4099, fill);
    EXPECT_EQ(ops().fingerprint(fp, data), reference().fingerprint(fp, data)) << int(fill);
  }
}

TEST_P(FingerprintTierTest, CombineMatchesReferenceMultiply) {
  Rng rng(63);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = rng.uniform(300);
    std::vector<std::uint64_t> fps(n);
    for (auto& f : fps) f = rng() | (rng.bernoulli(0.5) ? std::uint64_t{1} << 63 : 0);
    std::vector<std::uint8_t> coeffs(n);
    for (auto& c : coeffs) c = rng.bernoulli(0.3) ? 0 : static_cast<std::uint8_t>(rng());
    ASSERT_EQ(ops().combine(coeffs, fps), reference().combine(coeffs, fps)) << "n=" << n;
  }
}

/// The acceptance-criteria fuzz: random source blocks, random coefficient
/// vectors (dense GF(256), sparse, and GF(2)-only), unaligned payload
/// sizes — the combined source fingerprints must always predict the coded
/// payload's fingerprint exactly.
TEST_P(FingerprintTierTest, HomomorphismFuzzAcrossSizesAndCoefficientFields) {
  Rng rng(0xF00D);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.uniform(24);               // source blocks
    const std::size_t size = 1 + rng.uniform(515);           // deliberately unaligned
    const Fingerprinter fp(rng());
    std::vector<std::vector<std::uint8_t>> sources(n, std::vector<std::uint8_t>(size));
    std::vector<std::uint64_t> fps(n);
    for (std::size_t j = 0; j < n; ++j) {
      for (auto& b : sources[j]) b = static_cast<std::uint8_t>(rng());
      fps[j] = ops().fingerprint(fp, sources[j]);
    }
    for (int combo = 0; combo < 8; ++combo) {
      std::vector<std::uint8_t> coeffs(n);
      const int mode = combo % 3;  // 0: dense GF(256), 1: GF(2), 2: sparse
      for (auto& c : coeffs) {
        if (mode == 0) {
          c = static_cast<std::uint8_t>(rng());
        } else if (mode == 1) {
          c = static_cast<std::uint8_t>(rng() & 1);
        } else {
          c = rng.bernoulli(0.3) ? static_cast<std::uint8_t>(rng()) : 0;
        }
      }
      std::vector<std::uint8_t> coded(size, 0);
      for (std::size_t j = 0; j < n; ++j) {
        if (coeffs[j] != 0) gf::Gf256::axpy(coded, coeffs[j], sources[j]);
      }
      ASSERT_EQ(ops().fingerprint(fp, coded), ops().combine(coeffs, fps))
          << "round=" << round << " combo=" << combo << " size=" << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCompiledTiers, FingerprintTierTest,
                         ::testing::ValuesIn(fingerprint_compiled_kernels()),
                         [](const ::testing::TestParamInfo<FingerprintKernel>& info) {
                           return fingerprint_kernel_name(info.param);
                         });

TEST(Gf64Fingerprint, DispatchPicksTheBestSupportedTier) {
  const FingerprintKernel active = fingerprint_active_kernel();
  EXPECT_TRUE(fingerprint_kernel_runtime_ok(active));
  for (const FingerprintKernel k : fingerprint_compiled_kernels()) {
    if (static_cast<int>(k) > static_cast<int>(active)) {
      EXPECT_FALSE(fingerprint_kernel_runtime_ok(k));
    }
  }
  EXPECT_NE(active, FingerprintKernel::kReference);  // the oracle is never dispatched
}

}  // namespace
}  // namespace prlc::util
