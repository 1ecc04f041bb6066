// Wire format for coded blocks — what actually travels between nodes.
//
// A production deployment of the Sec.-4 protocol ships coded blocks over
// the network and stores them on flash/disk; both need a self-describing,
// integrity-checked byte layout. Format (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "PRLC"
//   4       1     version (1)
//   5       1     scheme (0 = RLC, 1 = SLC, 2 = PLC)
//   6       2     reserved (0)
//   8       4     level (0-indexed)
//   12      4     N — total source blocks (coefficient vector width)
//   16      4     payload size in bytes
//   20      4     coefficient encoding: 0 = dense, 1 = sparse
//   24      ...   coefficients:
//                   dense:  N raw bytes
//                   sparse: u32 count, then count x (u32 index, u8 value)
//   ...     ...   payload bytes
//   end-4   4     CRC-32 of everything before it
//
// The sparse encoding is chosen automatically when it is smaller — high-
// priority PLC blocks and O(ln N) sparse blocks compress well. decode()
// validates magic/version/CRC/bounds and throws WireFormatError on any
// corruption (tested with byte-flip and truncation injection).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "codes/coded_block.h"
#include "codes/scheme.h"
#include "gf/gf256.h"

namespace prlc::codes {

/// Widest coefficient vector a frame may describe. decode_wire_view
/// rejects wider frames as an allocation guard, so encode_wire refuses to
/// emit them; every other size field is a u32 on both sides.
inline constexpr std::size_t kMaxWireCoeffWidth = std::size_t{1} << 24;

class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const std::string& what) : std::runtime_error(what) {}
};

struct WireBlock {
  Scheme scheme = Scheme::kPlc;
  CodedBlock<gf::Gf256> block;
};

/// Borrowed view of one coded block for serialization: coefficient and
/// payload storage is owned elsewhere (a SourceData row, a codec output
/// buffer, an arena). Serializing a view never copies the payload into an
/// intermediate CodedBlock.
struct CodedBlockView {
  std::size_t level = 0;
  std::span<const std::uint8_t> coeffs;
  std::span<const std::uint8_t> payload;
};

/// Serialize a coded block (GF(2^8) symbols are bytes on the wire).
/// Requires a coefficient width in [1, kMaxWireCoeffWidth] and a level and
/// payload size that fit in 32 bits — never emits a frame decode rejects.
std::vector<std::uint8_t> encode_wire(Scheme scheme, const CodedBlock<gf::Gf256>& block);

/// Span-based twin of encode_wire: byte-identical output for identical
/// logical content (regression-tested), no owning CodedBlock required.
std::vector<std::uint8_t> encode_wire(Scheme scheme, const CodedBlockView& block);

/// Parsed frame that *references* the caller's byte buffer instead of
/// copying out of it. `payload` (and `dense_coeffs`, for densely encoded
/// frames) are subspans of the bytes passed to decode_wire_view; they are
/// valid only while that buffer lives and is unmodified. Sparse frames
/// keep their entries raw — expand_coeffs() materializes the full-width
/// vector into caller storage when needed.
struct WireBlockView {
  Scheme scheme = Scheme::kPlc;
  std::size_t level = 0;
  std::size_t coeff_width = 0;  ///< N — full coefficient-vector width
  /// Dense frames: the N raw coefficient bytes. Sparse frames: empty.
  std::span<const std::uint8_t> dense_coeffs;
  /// Sparse frames: `sparse_count` raw (u32 index, u8 value) entries.
  std::span<const std::uint8_t> sparse_entries;
  std::uint32_t sparse_count = 0;
  std::span<const std::uint8_t> payload;

  bool dense() const { return dense_coeffs.size() == coeff_width; }

  /// Write the full-width coefficient vector into `out` (size
  /// coeff_width). For dense frames this is one memcpy; sparse frames
  /// scatter their entries over a zeroed vector.
  void expand_coeffs(std::span<std::uint8_t> out) const;
};

/// Validate (magic/version/CRC/bounds — identical checks to decode_wire)
/// and return a zero-copy view; throws WireFormatError on malformed
/// input. decode_wire is implemented on top of this, so the two paths
/// cannot diverge.
WireBlockView decode_wire_view(std::span<const std::uint8_t> bytes);

/// Parse and validate; throws WireFormatError on malformed input.
WireBlock decode_wire(std::span<const std::uint8_t> bytes);

}  // namespace prlc::codes
