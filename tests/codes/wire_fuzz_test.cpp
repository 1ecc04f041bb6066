// Fuzz-style robustness battery for the wire format: arbitrary and
// mutated byte streams must either parse to a valid block or throw
// WireFormatError — never crash, hang, or return garbage silently.
//
// The resealed batteries recompute the trailing CRC after every mutation,
// so flipped bytes, truncations and oversized counts and widths reach the
// parser behind the checksum. Every mutant lives in an exactly-sized heap
// buffer: under the ASan/UBSan build (tools/run_sanitizers.sh) a parser
// or a wide CRC kernel reading one byte past a short frame fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>

#include "codes/encoder.h"
#include "codes/wire_format.h"
#include "util/crc32.h"
#include "util/random.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

TEST(WireFuzz, RandomBuffersNeverCrash) {
  Rng rng(301);
  for (int t = 0; t < 3000; ++t) {
    const std::size_t len = rng.uniform(200);
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
    try {
      const auto block = decode_wire(buf);
      // A random buffer passing a CRC-32 is a ~2^-32 event per trial;
      // reaching here at all is effectively impossible, but if it ever
      // happens the result must still be structurally sound.
      EXPECT_FALSE(block.block.coeffs.empty());
    } catch (const WireFormatError&) {
      // expected
    }
  }
}

TEST(WireFuzz, MutatedValidFramesNeverCrash) {
  Rng rng(302);
  const auto spec = PrioritySpec({4, 6, 10});
  const auto source = SourceData<F>::random(spec.total(), 8, rng);
  const PriorityEncoder<F> enc(Scheme::kPlc, spec, {}, &source);
  const auto wire = encode_wire(Scheme::kPlc, enc.encode(2, rng));
  std::size_t parsed = 0;
  for (int t = 0; t < 3000; ++t) {
    auto buf = wire;
    // 1-4 random byte mutations.
    const std::size_t mutations = 1 + rng.uniform(4);
    for (std::size_t i = 0; i < mutations; ++i) {
      buf[rng.uniform(buf.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    try {
      decode_wire(buf);
      ++parsed;  // mutations that cancel out (possible when an even
                 // number hit the same byte) re-create the original
    } catch (const WireFormatError&) {
    }
  }
  EXPECT_LE(parsed, 60);  // overwhelming majority must be rejected
}

TEST(WireFuzz, RandomTruncationsNeverCrash) {
  Rng rng(303);
  const auto spec = PrioritySpec({4, 6, 10});
  const PriorityEncoder<F> enc(Scheme::kSlc, spec);
  const auto wire = encode_wire(Scheme::kSlc, enc.encode(1, rng));
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    const std::vector<std::uint8_t> cut(wire.begin(),
                                        wire.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode_wire(cut), WireFormatError) << keep;
  }
}

TEST(WireFuzz, ConcatenatedFramesRejected) {
  // Two frames glued together must not silently parse as one.
  Rng rng(304);
  const auto spec = PrioritySpec({4, 6, 10});
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  auto a = encode_wire(Scheme::kPlc, enc.encode(0, rng));
  const auto b = encode_wire(Scheme::kPlc, enc.encode(1, rng));
  a.insert(a.end(), b.begin(), b.end());
  EXPECT_THROW(decode_wire(a), WireFormatError);
}

/// Rewrite the trailing CRC-32 so the frame passes the checksum again.
void reseal(std::vector<std::uint8_t>& frame) {
  if (frame.size() < 4) return;
  const std::span<const std::uint8_t> body(frame.data(), frame.size() - 4);
  const std::uint32_t crc = crc32(body);
  for (std::size_t i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

void put_u32(std::vector<std::uint8_t>& frame, std::size_t at, std::uint32_t v) {
  if (at + 4 > frame.size()) return;
  for (std::size_t i = 0; i < 4; ++i) frame[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Outcome counts of one battery; anything but a parse or a
/// WireFormatError escapes and fails the test.
struct Outcomes {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

/// Parse `frame` from an exactly-sized copy; a successful block parse must
/// keep every view inside the frame, ahead of the CRC.
void parse_block(const std::vector<std::uint8_t>& frame, Outcomes& out) {
  const std::vector<std::uint8_t> exact(frame.begin(), frame.end());
  try {
    const WireBlockView view = decode_wire_view(exact);
    const std::uint8_t* body_end = exact.data() + exact.size() - 4;
    ASSERT_GE(view.payload.data(), exact.data());
    ASSERT_LE(view.payload.data() + view.payload.size(), body_end);
    ASSERT_GE(view.coeff_width, 1u);
    ASSERT_LE(view.coeff_width, kMaxWireCoeffWidth);
    std::vector<std::uint8_t> coeffs(view.coeff_width);
    view.expand_coeffs(coeffs);
    ++out.parsed;
  } catch (const WireFormatError&) {
    ++out.rejected;
  }
}

/// Every truncation, random byte flips, and extreme values in each u32
/// size field — all resealed. Returns the outcome tally.
Outcomes resealed_battery(const std::vector<std::uint8_t>& frame,
                          std::span<const std::size_t> u32_fields, Rng& rng) {
  Outcomes out;
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    std::vector<std::uint8_t> cut(frame.begin(),
                                  frame.begin() + static_cast<std::ptrdiff_t>(keep));
    reseal(cut);
    parse_block(cut, out);
  }
  for (int t = 0; t < 1500; ++t) {
    auto mutant = frame;
    const std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutant[rng.uniform(mutant.size() - 4)] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    reseal(mutant);
    parse_block(mutant, out);
  }
  const std::uint32_t extremes[] = {0u,
                                    1u,
                                    static_cast<std::uint32_t>(frame.size()),
                                    static_cast<std::uint32_t>(kMaxWireCoeffWidth),
                                    static_cast<std::uint32_t>(kMaxWireCoeffWidth) + 1,
                                    0x33333333u,
                                    0x7FFFFFFFu,
                                    std::numeric_limits<std::uint32_t>::max()};
  for (const std::size_t at : u32_fields) {
    for (const std::uint32_t v : extremes) {
      auto mutant = frame;
      put_u32(mutant, at, v);
      reseal(mutant);
      parse_block(mutant, out);
    }
    for (int t = 0; t < 50; ++t) {
      auto mutant = frame;
      put_u32(mutant, at, static_cast<std::uint32_t>(rng()));
      reseal(mutant);
      parse_block(mutant, out);
    }
  }
  return out;
}

TEST(WireFuzz, ResealedBlockFramesParseOrThrowWireFormatError) {
  Rng rng(305);
  const auto spec = PrioritySpec({4, 16, 40});  // level 0 encodes sparse
  // 300-byte payloads put whole frames past the wide CRC kernels' 256-byte
  // step, so the truncations cross every one of their tail paths.
  const auto source = SourceData<F>::random(spec.total(), 300, rng);
  const PriorityEncoder<F> enc(Scheme::kPlc, spec, {}, &source);
  const auto dense = encode_wire(Scheme::kPlc, enc.encode(2, rng));
  const auto sparse = encode_wire(Scheme::kPlc, enc.encode(0, rng));
  ASSERT_NE(dense[20], sparse[20]) << "want one dense and one sparse frame";
  // level, width, payload size, encoding, and (sparse) the entry count.
  const std::size_t dense_fields[] = {8, 12, 16, 20};
  const std::size_t sparse_fields[] = {8, 12, 16, 20, 24};
  for (const auto& [frame, fields] :
       {std::pair{dense, std::span<const std::size_t>(dense_fields)},
        std::pair{sparse, std::span<const std::size_t>(sparse_fields)}}) {
    const Outcomes out = resealed_battery(frame, fields, rng);
    EXPECT_GT(out.rejected, 0u);
  }
}

TEST(WireFuzz, ResealedRandomFramesParseOrThrowWireFormatError) {
  // Valid magic and version, random everything else, valid CRC: the
  // header checks alone decide.
  Rng rng(307);
  Outcomes blocks;
  for (int t = 0; t < 1500; ++t) {
    std::vector<std::uint8_t> frame(rng.uniform(120));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng());
    const std::uint8_t magic[4] = {'P', 'R', 'L', 'C'};
    for (std::size_t i = 0; i < 4 && i < frame.size(); ++i) frame[i] = magic[i];
    if (frame.size() > 4) frame[4] = 1;
    if (frame.size() > 5) frame[5] = static_cast<std::uint8_t>(rng.uniform(3));
    reseal(frame);
    parse_block(frame, blocks);
  }
  EXPECT_GT(blocks.rejected, 0u);
}

}  // namespace
}  // namespace prlc::codes
