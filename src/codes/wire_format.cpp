#include "codes/wire_format.h"

#include <cstring>
#include <limits>

#include "util/check.h"
#include "util/crc32.h"

namespace prlc::codes {

namespace {

constexpr std::uint8_t kMagic[4] = {'P', 'R', 'L', 'C'};
constexpr std::uint8_t kVersion = 1;
constexpr std::uint32_t kDense = 0;
constexpr std::uint32_t kSparse = 1;
constexpr std::size_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = static_cast<std::uint32_t>(bytes_[pos_]) |
                            static_cast<std::uint32_t>(bytes_[pos_ + 1]) << 8 |
                            static_cast<std::uint32_t>(bytes_[pos_ + 2]) << 16 |
                            static_cast<std::uint32_t>(bytes_[pos_ + 3]) << 24;
    pos_ += 4;
    return v;
  }

  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  void need(std::size_t n) {
    if (remaining() < n) throw WireFormatError("truncated coded block");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

std::uint8_t scheme_byte(Scheme s) {
  switch (s) {
    case Scheme::kRlc:
      return 0;
    case Scheme::kSlc:
      return 1;
    case Scheme::kPlc:
      return 2;
  }
  PRLC_ASSERT(false, "unknown scheme");
}

Scheme scheme_from_byte(std::uint8_t b) {
  switch (b) {
    case 0:
      return Scheme::kRlc;
    case 1:
      return Scheme::kSlc;
    case 2:
      return Scheme::kPlc;
    default:
      throw WireFormatError("unknown scheme byte " + std::to_string(b));
  }
}

}  // namespace

std::vector<std::uint8_t> encode_wire(Scheme scheme, const CodedBlockView& block) {
  PRLC_REQUIRE(!block.coeffs.empty(), "cannot serialize a block with no coefficients");
  PRLC_REQUIRE(block.coeffs.size() <= kMaxWireCoeffWidth,
               "coefficient width exceeds what decode_wire_view accepts");
  PRLC_REQUIRE(block.payload.size() <= kMaxU32, "payload size does not fit the u32 field");
  PRLC_REQUIRE(block.level <= kMaxU32, "level does not fit the u32 field");

  std::size_t nnz = 0;
  for (auto c : block.coeffs) nnz += c != 0 ? 1 : 0;
  // Sparse entry costs 5 bytes vs 1 for dense; plus a 4-byte count.
  const bool sparse = 4 + nnz * 5 < block.coeffs.size();

  std::vector<std::uint8_t> out;
  out.reserve(32 + (sparse ? 4 + nnz * 5 : block.coeffs.size()) + block.payload.size());
  for (std::uint8_t m : kMagic) out.push_back(m);
  out.push_back(kVersion);
  out.push_back(scheme_byte(scheme));
  out.push_back(0);
  out.push_back(0);
  put_u32(out, static_cast<std::uint32_t>(block.level));
  put_u32(out, static_cast<std::uint32_t>(block.coeffs.size()));
  put_u32(out, static_cast<std::uint32_t>(block.payload.size()));
  put_u32(out, sparse ? kSparse : kDense);
  if (sparse) {
    put_u32(out, static_cast<std::uint32_t>(nnz));
    for (std::size_t j = 0; j < block.coeffs.size(); ++j) {
      if (block.coeffs[j] != 0) {
        put_u32(out, static_cast<std::uint32_t>(j));
        out.push_back(block.coeffs[j]);
      }
    }
  } else {
    // memcpy instead of insert: sidesteps a GCC 12 -Wstringop-overflow
    // false positive on vector range-insert after reserve.
    const std::size_t base = out.size();
    out.resize(base + block.coeffs.size());
    std::memcpy(out.data() + base, block.coeffs.data(), block.coeffs.size());
  }
  if (!block.payload.empty()) {
    const std::size_t base = out.size();
    out.resize(base + block.payload.size());
    std::memcpy(out.data() + base, block.payload.data(), block.payload.size());
  }
  put_u32(out, crc32(std::span<const std::uint8_t>(out)));
  return out;
}

std::vector<std::uint8_t> encode_wire(Scheme scheme, const CodedBlock<gf::Gf256>& block) {
  return encode_wire(scheme, CodedBlockView{.level = block.level,
                                           .coeffs = block.coeffs,
                                           .payload = block.payload});
}

void WireBlockView::expand_coeffs(std::span<std::uint8_t> out) const {
  PRLC_REQUIRE(out.size() == coeff_width, "coefficient output span has the wrong width");
  if (!dense_coeffs.empty()) {
    std::memcpy(out.data(), dense_coeffs.data(), coeff_width);
    return;
  }
  std::memset(out.data(), 0, out.size());
  const std::uint8_t* p = sparse_entries.data();
  for (std::uint32_t i = 0; i < sparse_count; ++i, p += 5) {
    const std::uint32_t idx = static_cast<std::uint32_t>(p[0]) |
                              static_cast<std::uint32_t>(p[1]) << 8 |
                              static_cast<std::uint32_t>(p[2]) << 16 |
                              static_cast<std::uint32_t>(p[3]) << 24;
    out[idx] = p[4];  // indices were bounds-checked by decode_wire_view
  }
}

WireBlockView decode_wire_view(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 28) throw WireFormatError("shorter than the minimal frame");
  // CRC covers everything before the trailing 4 bytes.
  const auto body = bytes.subspan(0, bytes.size() - 4);
  Reader crc_reader(bytes.subspan(bytes.size() - 4));
  const std::uint32_t want_crc = crc_reader.u32();
  if (crc32(body) != want_crc) throw WireFormatError("CRC mismatch (corrupt block)");

  Reader r(body);
  for (std::uint8_t m : kMagic) {
    if (r.u8() != m) throw WireFormatError("bad magic");
  }
  if (r.u8() != kVersion) throw WireFormatError("unsupported version");
  WireBlockView out;
  out.scheme = scheme_from_byte(r.u8());
  r.u8();  // reserved
  r.u8();
  out.level = r.u32();
  const std::uint32_t n = r.u32();
  const std::uint32_t payload_size = r.u32();
  if (n == 0) throw WireFormatError("zero coefficient width");
  // Allocation guard only — sparse frames legitimately describe widths
  // far larger than the frame itself, and the CRC already vouches for
  // integrity.
  if (n > kMaxWireCoeffWidth) throw WireFormatError("implausible coefficient width");
  out.coeff_width = n;
  const std::uint32_t encoding = r.u32();

  if (encoding == kDense) {
    out.dense_coeffs = r.raw(n);
  } else if (encoding == kSparse) {
    const std::uint32_t count = r.u32();
    if (count > n) throw WireFormatError("sparse count exceeds width");
    out.sparse_count = count;
    out.sparse_entries = r.raw(static_cast<std::size_t>(count) * 5);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint8_t* p = out.sparse_entries.data() + std::size_t{i} * 5;
      const std::uint32_t idx = static_cast<std::uint32_t>(p[0]) |
                                static_cast<std::uint32_t>(p[1]) << 8 |
                                static_cast<std::uint32_t>(p[2]) << 16 |
                                static_cast<std::uint32_t>(p[3]) << 24;
      if (idx >= n) throw WireFormatError("sparse index out of range");
    }
  } else {
    throw WireFormatError("unknown coefficient encoding");
  }

  out.payload = r.raw(payload_size);
  if (r.remaining() != 0) throw WireFormatError("trailing bytes after payload");
  return out;
}

WireBlock decode_wire(std::span<const std::uint8_t> bytes) {
  const WireBlockView view = decode_wire_view(bytes);
  WireBlock out;
  out.scheme = view.scheme;
  out.block.level = view.level;
  out.block.coeffs.resize(view.coeff_width);
  view.expand_coeffs(out.block.coeffs);
  out.block.payload.assign(view.payload.begin(), view.payload.end());
  return out;
}

}  // namespace prlc::codes
