#include "codec/payload_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codes/encoder.h"
#include "gf/gf256.h"
#include "runtime/thread_pool.h"
#include "util/random.h"

namespace prlc::codec {
namespace {

using F = gf::Gf256;
using codes::PrioritySpec;
using codes::Scheme;

/// Byte-wise scalar reference: out = sum_j row[j] * source_j via F::mul,
/// no kernels, no tiling — the ground truth encode must reproduce.
std::vector<std::uint8_t> scalar_encode_row(const std::vector<std::uint8_t>& row,
                                            const codes::SourceData<F>& source) {
  std::vector<std::uint8_t> out(source.block_size(), 0);
  for (std::size_t j = 0; j < row.size(); ++j) {
    if (row[j] == 0) continue;
    const auto src = source.block(j);
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = static_cast<std::uint8_t>(out[k] ^ F::mul(row[j], src[k]));
    }
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> draw_rows(Scheme scheme, const PrioritySpec& spec,
                                                 std::size_t count, Rng& rng) {
  const codes::PriorityEncoder<F> enc(scheme, spec);
  std::vector<std::vector<std::uint8_t>> rows;
  for (std::size_t i = 0; i < count; ++i) {
    // Deepest level: full-support rows, so the system reaches full rank.
    rows.push_back(enc.encode(spec.levels() - 1, rng).coeffs);
  }
  return rows;
}

// --- differential fuzz: encode ---------------------------------------------

TEST(PayloadCodec, EncodeMatchesScalarReferenceAtUnalignedSizes) {
  // Object sizes chosen to straddle tile boundaries: 1 B (sub-tile),
  // 4 KiB +/- 1, 1 MiB + 17.
  Rng rng(21);
  const auto spec = PrioritySpec::uniform(2, 4);  // N = 8
  const std::size_t n = spec.total();
  for (const std::size_t object_bytes :
       {std::size_t{1}, std::size_t{4095}, std::size_t{4097}, (std::size_t{1} << 20) + 17}) {
    const std::size_t block_size = std::max<std::size_t>(1, (object_bytes + n - 1) / n);
    const auto source = codes::SourceData<F>::random(n, block_size, rng);
    const auto rows = draw_rows(Scheme::kPlc, spec, n, rng);

    std::vector<std::vector<std::uint8_t>> want;
    for (const auto& row : rows) want.push_back(scalar_encode_row(row, source));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      runtime::ThreadPool pool(threads);
      const PayloadCodec codec(spec, &pool);
      const auto got = codec.encode(rows, source);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t b = 0; b < want.size(); ++b) {
        ASSERT_EQ(got[b], want[b])
            << "object " << object_bytes << " threads " << threads << " row " << b;
      }
    }
  }
}

TEST(PayloadCodec, EncodeOfNoRowsIsEmptyWithAndWithoutPool) {
  Rng rng(23);
  const auto spec = PrioritySpec::uniform(2, 4);
  const auto source = codes::SourceData<F>::random(spec.total(), 100, rng);
  runtime::ThreadPool pool(4);
  EXPECT_TRUE(PayloadCodec(spec).encode({}, source).empty());
  EXPECT_TRUE(PayloadCodec(spec, &pool).encode({}, source).empty());
}

TEST(PayloadCodec, LargeObjectPooledEncodeIsByteIdenticalToSerial) {
  // 64 MiB - 1: too big for the scalar reference, so the serial
  // path (itself fuzz-verified above) is the oracle for the pooled runs.
  Rng rng(22);
  const auto spec = PrioritySpec::uniform(2, 4);  // N = 8
  const std::size_t n = spec.total();
  const std::size_t object_bytes = (std::size_t{64} << 20) - 1;
  const std::size_t block_size = (object_bytes + n - 1) / n;
  const auto source = codes::SourceData<F>::random(n, block_size, rng);
  const auto rows = draw_rows(Scheme::kPlc, spec, n, rng);

  const auto want = PayloadCodec(spec).encode(rows, source);
  runtime::ThreadPool pool(8);
  EXPECT_EQ(PayloadCodec(spec, &pool).encode(rows, source), want);
}

// --- survivor recombination -------------------------------------------------

TEST(PayloadCodec, RecombineIsTheGammaLinearCombination) {
  Rng rng(25);
  const auto spec = PrioritySpec::uniform(2, 4);
  const std::size_t n = spec.total();
  const std::size_t block_size = 1000;
  const auto source = codes::SourceData<F>::random(n, block_size, rng);
  const auto rows = draw_rows(Scheme::kPlc, spec, 5, rng);
  const PayloadCodec codec(spec);
  const auto coded = codec.encode(rows, source);

  std::vector<std::uint8_t> gamma;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    gamma.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
  }
  gamma[1] = 0;  // exercise the skip path

  std::vector<std::span<const std::uint8_t>> payload_views(coded.begin(), coded.end());
  const auto block = codec.recombine(rows, payload_views, gamma, 1);
  EXPECT_EQ(block.level, 1u);

  std::vector<std::uint8_t> want_coeffs(n, 0);
  std::vector<std::uint8_t> want_payload(block_size, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (gamma[i] == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      want_coeffs[j] ^= F::mul(gamma[i], rows[i][j]);
    }
    for (std::size_t k = 0; k < block_size; ++k) {
      want_payload[k] ^= F::mul(gamma[i], coded[i][k]);
    }
  }
  EXPECT_EQ(block.coeffs, want_coeffs);
  EXPECT_EQ(block.payload, want_payload);
}

}  // namespace
}  // namespace prlc::codec
