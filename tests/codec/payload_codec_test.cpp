#include "codec/payload_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codes/decoder.h"
#include "codes/encoder.h"
#include "codes/wire_format.h"
#include "gf/gf256.h"
#include "net/chord_network.h"
#include "net/fault_model.h"
#include "proto/fault_channel.h"
#include "proto/predistribution.h"
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
  // 4 KiB +/- 1, 1 MiB + 17. Chunk sizes likewise unaligned.
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

    for (const std::size_t chunk : {std::size_t{1024}, std::size_t{4096}, std::size_t{32768}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        runtime::ThreadPool pool(threads);
        const PayloadCodec codec(Scheme::kPlc, spec, {.chunk_bytes = chunk, .pool = &pool});
        const auto got = codec.encode(rows, source);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < want.size(); ++b) {
          ASSERT_EQ(got[b], want[b])
              << "object " << object_bytes << " chunk " << chunk << " threads " << threads
              << " row " << b;
        }
      }
    }
  }
}

TEST(PayloadCodec, EncodeOfNoRowsIsEmptyWithAndWithoutPool) {
  Rng rng(23);
  const auto spec = PrioritySpec::uniform(2, 4);
  const auto source = codes::SourceData<F>::random(spec.total(), 100, rng);
  runtime::ThreadPool pool(4);
  EXPECT_TRUE(PayloadCodec(Scheme::kPlc, spec).encode({}, source).empty());
  EXPECT_TRUE(PayloadCodec(Scheme::kPlc, spec, {.pool = &pool}).encode({}, source).empty());
}

TEST(PayloadCodec, LargeObjectPooledEncodeDecodeIsByteIdenticalToSerial) {
  // 64 MiB - 1: too big for the scalar reference, so the serial
  // path (itself fuzz-verified above) is the oracle for the pooled runs.
  Rng rng(22);
  const auto spec = PrioritySpec::uniform(2, 4);  // N = 8
  const std::size_t n = spec.total();
  const std::size_t object_bytes = (std::size_t{64} << 20) - 1;
  const std::size_t block_size = (object_bytes + n - 1) / n;
  const auto source = codes::SourceData<F>::random(n, block_size, rng);
  const auto rows = draw_rows(Scheme::kPlc, spec, n, rng);

  const PayloadCodec serial(Scheme::kPlc, spec, {.chunk_bytes = std::size_t{128} << 10});
  const auto want_coded = serial.encode(rows, source);
  auto want_buffers = want_coded;
  const auto want_result = serial.decode(rows, want_buffers);

  runtime::ThreadPool pool(8);
  const PayloadCodec pooled(Scheme::kPlc, spec,
                            {.chunk_bytes = std::size_t{128} << 10, .pool = &pool});
  const auto got_coded = pooled.encode(rows, source);
  EXPECT_EQ(got_coded, want_coded);
  auto got_buffers = got_coded;
  const auto got_result = pooled.decode(rows, got_buffers);
  EXPECT_EQ(got_result.rank, want_result.rank);
  EXPECT_EQ(got_buffers, want_buffers);
}

// --- differential fuzz: decode ---------------------------------------------

TEST(PayloadCodec, DecodeMatchesEagerPriorityDecoder) {
  Rng rng(23);
  const auto spec = PrioritySpec::uniform(4, 4);  // N = 16
  const std::size_t n = spec.total();
  const std::size_t block_size = 4097;
  const auto source = codes::SourceData<F>::random(n, block_size, rng);
  const auto rows = draw_rows(Scheme::kPlc, spec, n + 2, rng);

  const PayloadCodec serial(Scheme::kPlc, spec, {.chunk_bytes = 1024});
  const auto coded = serial.encode(rows, source);

  // Eager reference: coefficient+payload Gauss-Jordan as the blocks land.
  codes::PriorityDecoder<F> eager(Scheme::kPlc, spec, block_size);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    codes::CodedBlock<F> block;
    block.level = spec.levels() - 1;
    block.coeffs = rows[i];
    block.payload = coded[i];
    eager.add(block);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    runtime::ThreadPool pool(threads);
    const PayloadCodec codec(Scheme::kPlc, spec, {.chunk_bytes = 1024, .pool = &pool});
    auto buffers = coded;
    const auto result = codec.decode(rows, buffers);
    EXPECT_EQ(result.decoded_levels, eager.decoded_levels());
    EXPECT_EQ(result.decoded_prefix, eager.decoded_prefix_blocks());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_TRUE(result.blocks[j].decoded);
      const auto got = result.blocks[j].payload;
      const auto want = eager.recovered(j);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "block " << j << " at " << threads << " threads";
      const auto orig = source.block(j);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), orig.begin(), orig.end()));
    }
  }
}

TEST(PayloadCodec, PartialRankDecodesThePrefixOnly) {
  Rng rng(24);
  const auto spec = PrioritySpec::uniform(2, 4);  // N = 8, levels of 4
  const std::size_t n = spec.total();
  const auto source = codes::SourceData<F>::random(n, 257, rng);

  // Rows confined to the first level: rank can cover blocks [0, 4) only.
  const codes::PriorityEncoder<F> enc(Scheme::kPlc, spec);
  std::vector<std::vector<std::uint8_t>> rows;
  for (std::size_t i = 0; i < 6; ++i) rows.push_back(enc.encode(0, rng).coeffs);

  const PayloadCodec codec(Scheme::kPlc, spec, {.chunk_bytes = 64});
  const auto coded = codec.encode(rows, source);
  auto buffers = coded;
  const auto result = codec.decode(rows, buffers);
  EXPECT_EQ(result.rank, 4u);
  EXPECT_EQ(result.decoded_prefix, 4u);
  EXPECT_EQ(result.decoded_levels, 1u);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(result.blocks[j].decoded, j < 4);
    if (!result.blocks[j].decoded) continue;
    const auto got = result.blocks[j].payload;
    const auto want = source.block(j);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  }
}

// --- survivor recombination -------------------------------------------------

TEST(PayloadCodec, RecombineIsTheGammaLinearCombination) {
  Rng rng(25);
  const auto spec = PrioritySpec::uniform(2, 4);
  const std::size_t n = spec.total();
  const std::size_t block_size = 1000;
  const auto source = codes::SourceData<F>::random(n, block_size, rng);
  const auto rows = draw_rows(Scheme::kPlc, spec, 5, rng);
  const PayloadCodec codec(Scheme::kPlc, spec, {.chunk_bytes = 256});
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

// --- decode after in-band corruption ----------------------------------------

TEST(PayloadCodec, DecodesLeadingLevelsFromCorruptedChannelFetches) {
  // Disseminate, fetch everything through a FaultyChannel that corrupts a
  // third of the frames in band, keep what the wire layer accepts, and
  // graph-decode the survivors. The graph decode must agree exactly with
  // the eager decoder on the same partial payload set, and the leading
  // priority levels must come back intact.
  PrioritySpec spec{std::vector<std::size_t>{4, 6, 10}};  // N = 20
  codes::PriorityDistribution dist{std::vector<double>{0.3, 0.3, 0.4}};
  net::ChordParams np;
  np.nodes = 80;
  np.locations = 120;
  np.seed = 23;
  net::ChordNetwork overlay(np);
  proto::ProtocolParams params;
  params.block_size = 513;
  Rng rng(77);
  proto::Predistribution pd(overlay, spec, dist, params);
  const auto source = codes::SourceData<proto::Field>::random(spec.total(), 513, rng);
  pd.disseminate(source, rng);

  net::FaultSpec fault;
  fault.corrupt_rate = 0.34;
  net::FaultPlan plan(fault, overlay.nodes(), rng);
  proto::FaultyChannel channel(pd, std::move(plan));

  std::vector<std::vector<std::uint8_t>> rows;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::size_t rejected = 0;
  for (net::LocationId loc : channel.retrievable_locations()) {
    const proto::FetchReply reply = channel.fetch(loc, rng);
    if (reply.fault != net::FaultClass::kNone) continue;
    try {
      const codes::WireBlockView view = codes::decode_wire_view(reply.bytes);
      std::vector<std::uint8_t> coeffs(view.coeff_width);
      view.expand_coeffs(coeffs);
      rows.push_back(std::move(coeffs));
      payloads.emplace_back(view.payload.begin(), view.payload.end());
    } catch (const codes::WireFormatError&) {
      ++rejected;  // in-band corruption unmasked by the CRC
    }
  }
  EXPECT_EQ(rejected, channel.injected().corruptions);
  ASSERT_GE(rows.size(), spec.total());  // enough survivors to be interesting

  codes::PriorityDecoder<F> eager(Scheme::kPlc, spec, params.block_size);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    codes::CodedBlock<F> block;
    block.coeffs = rows[i];
    block.payload = payloads[i];
    eager.add(block);
  }

  runtime::ThreadPool pool(4);
  const PayloadCodec codec(Scheme::kPlc, spec, {.chunk_bytes = 128, .pool = &pool});
  const auto result = codec.decode(rows, payloads);
  EXPECT_EQ(result.decoded_levels, eager.decoded_levels());
  EXPECT_GE(result.decoded_levels, 1u);  // leading levels survive corruption
  for (std::size_t j = 0; j < result.decoded_prefix; ++j) {
    ASSERT_TRUE(result.blocks[j].decoded);
    const auto got = result.blocks[j].payload;
    const auto want = source.block(j);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "source block " << j;
  }
}

}  // namespace
}  // namespace prlc::codec
