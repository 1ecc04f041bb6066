// Homomorphic block fingerprints over GF(2^64).
//
// A payload is read as a polynomial over GF(2^64) — one field element per
// byte, through the embedding below — and evaluated at a secret point r
// (Rabin fingerprinting, but over a binary field so that the algebra of
// the codes carries through). Two properties make this the right
// integrity primitive for random linear codes:
//
//   * Linearity under coding. GF(2^8) embeds in GF(2^64) (8 divides 64):
//     fix a root alpha of the code's own modulus x^8+x^4+x^3+x^2+1
//     (gf::Gf256's 0x11D) inside GF(2^64); then byte -> sum of alpha^i
//     over its set bits is a FIELD homomorphism, so for equal-length
//     payloads   fp(sum_j gamma_j * s_j) = sum_j embed(gamma_j) * fp(s_j).
//     Any coded block is verifiable against the SOURCE-block fingerprint
//     manifest — per block, with no decoding and no leave-one-out search.
//
//   * Schwartz–Zippel soundness. Distinct equal-length payloads agree at
//     a random r with probability <= (L-1)/2^64 for L-byte payloads: a
//     forged frame (bit rot behind a recomputed CRC, a Byzantine node
//     serving payload inconsistent with its claimed coefficients) slips
//     through with probability ~2^-50 even at 16 KiB blocks.
//
// GF(2^64) is GF(2)[x]/(x^64+x^4+x^3+x+1). The hot path works a word at a
// time: Horner's rule is linear, so eight bytes b_0..b_7 advance the
// accumulator in one step, acc <- acc * r^8 ^ E(w), where
// E(w) = sum_k embed(b_k) * r^(7-k) is a GF(2)-linear function of the
// word — eight lookups in byte-sliced tables. Every per-point table is
// GF(2)-linear too, so the constructor builds each one by XOR from the
// images of its bits (three 16 KiB tables, no bitwise multiplies). The
// tiers differ in how they evaluate E and the multiply by a power of r;
// the rule in util/kernel_tiers.h picks the fastest one the CPU supports
// from the family's tier table, once, at first use:
//
//   kReference — byte at a time, acc <- acc * r ^ embed(b), the multiply
//                by r through byte-sliced tables; the seed loop, kept as
//                the oracle the others are tested against.
//   kSlice8    — portable word step: E(w) and acc * r^8 both by table.
//   kPclmul    — E(w) by table, four words folded per step with PCLMULQDQ
//                (acc * r^32 ^ E0 * r^24 ^ E1 * r^16 ^ E2 * r^8 ^ E3) on
//                an unreduced 128-bit accumulator, reduced once at the end.
//   kAvx512    — 64 bytes per step: a byte transpose (VPERMB) lines up
//                byte k of eight words so GF2P8AFFINEQB applies E's 8x8
//                bit-matrix blocks to all of them at once; eight 128-bit
//                lane accumulators then advance by r^64 with VPCLMULQDQ.
//
// Tail bytes that do not fill a step take the slice8 word step and the
// reference byte step. combine() multiplies with the carry-less
// instruction (or its portable emulation) and reduces once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace prlc::util {

/// Reference carry-less multiply-and-reduce in GF(2^64). Slow (bitwise);
/// setup and tests only — the kernels never call it per byte.
std::uint64_t gf64_mul(std::uint64_t a, std::uint64_t b);

/// a^e in GF(2^64) by square-and-multiply.
std::uint64_t gf64_pow(std::uint64_t a, std::uint64_t e);

/// The field embedding GF(2^8) -> GF(2^64): evaluation of the byte's
/// polynomial at a root of 0x11D. embed(a*b) = embed(a)*embed(b) and
/// embed(a^b) = embed(a)^embed(b) (GF(2^8) products per gf::Gf256).
/// embed(0) = 0, embed(1) = 1. The root is found once at startup.
std::uint64_t gf64_embed(std::uint8_t value);

class Fingerprinter;

enum class FingerprintKernel {
  kReference = 0,  ///< byte-wise Horner through multiply-by-r tables
  kSlice8,         ///< portable word step, all by table
  kPclmul,         ///< table E(w), PCLMULQDQ fold of four words
  kAvx512,         ///< GFNI + VBMI E(w), VPCLMULQDQ lane fold
};

/// One kernel tier; every tier returns exactly the kReference value.
struct FingerprintKernelOps {
  const char* name;
  /// Fingerprinter::fingerprint.
  std::uint64_t (*fingerprint)(const Fingerprinter& fp, std::span<const std::uint8_t> payload);
  /// Fingerprinter::combine, sizes already checked equal.
  std::uint64_t (*combine)(std::span<const std::uint8_t> coeffs,
                           std::span<const std::uint64_t> fingerprints);
};

/// Name of a compiled tier ("reference", "slice8", "pclmul", "avx512").
const char* fingerprint_kernel_name(FingerprintKernel k);

/// Every tier compiled into this binary, in ascending preference order.
std::vector<FingerprintKernel> fingerprint_compiled_kernels();

/// True when the tier is compiled in AND the running CPU can execute it.
bool fingerprint_kernel_runtime_ok(FingerprintKernel k);

/// Ops of a specific tier (tests, benchmarks); throws PreconditionError
/// when it is not compiled in. Requires fingerprint_kernel_runtime_ok(k)
/// before calling through the result.
const FingerprintKernelOps& fingerprint_kernel_ops(FingerprintKernel k);

/// The tier Fingerprinter uses: the best runtime-supported one, fixed at
/// first use.
FingerprintKernel fingerprint_active_kernel();

/// Seeded fingerprinting context: derives a nonzero evaluation point from
/// `seed` and precomputes the per-point tables. The same seed always
/// yields the same point — a manifest records its seed so any collector
/// can re-derive the verifier.
class Fingerprinter {
 public:
  explicit Fingerprinter(std::uint64_t seed);

  std::uint64_t seed() const { return seed_; }
  std::uint64_t point() const { return point_; }

  /// Horner evaluation: fp = sum_i embed(payload[i]) * r^(L-1-i).
  /// Linear in the payload for a fixed length L; fp(empty) = 0.
  std::uint64_t fingerprint(std::span<const std::uint8_t> payload) const;

  /// Predicted fingerprint of a coded block: sum_j embed(coeffs[j]) *
  /// fingerprints[j]. Equals fingerprint(coded payload) whenever the
  /// payload really is that linear combination of the source blocks.
  std::uint64_t combine(std::span<const std::uint8_t> coeffs,
                        std::span<const std::uint64_t> fingerprints) const;

 private:
  friend struct FingerprintKernels;
  using SlicedTable = std::array<std::array<std::uint64_t, 256>, 8>;

  std::uint64_t seed_ = 0;
  std::uint64_t point_ = 0;
  /// mul_r_[k][b] = (b << 8k) * r: the reference byte step.
  SlicedTable mul_r_;
  /// mul_r8_[k][b] = (b << 8k) * r^8: the slice8 word step.
  SlicedTable mul_r8_;
  /// word_[k][b] = embed(b) * r^(7-k): E(w) = xor_k word_[k][byte k of w].
  SlicedTable word_;
  /// r8_pow_[i] = r^(8i) and r8_pow_hi_[i] = x^64 * r^(8i), i = 0..8: the
  /// multipliers of the carry-less tiers (the second one advances the
  /// high half of an unreduced 128-bit accumulator).
  std::array<std::uint64_t, 9> r8_pow_{};
  std::array<std::uint64_t, 9> r8_pow_hi_{};
  /// affine_[k][o]: GF2P8AFFINEQB encoding of the 8x8 bit matrix taking
  /// byte k of a word to byte o of E(w).
  std::array<std::array<std::uint64_t, 8>, 8> affine_{};
};

/// The per-source-block fingerprint manifest a collection verifies
/// against. Computed by whoever holds the source data (the disseminating
/// node), shipped beside the coded blocks (codes/wire_format.h gives it a
/// CRC-framed wire encoding), and valid for any number of coded blocks.
struct FingerprintManifest {
  std::uint64_t seed = 0;                     ///< Fingerprinter seed
  std::size_t block_size = 0;                 ///< payload bytes per block
  std::vector<std::uint64_t> fingerprints;    ///< one per source block

  bool operator==(const FingerprintManifest&) const = default;
};

/// Fingerprint every `block_size`-byte block of `source` (laid out
/// back-to-back, as codes::SourceData stores them).
FingerprintManifest build_manifest(std::uint64_t seed,
                                   std::span<const std::uint8_t> source,
                                   std::size_t block_size);

}  // namespace prlc::util
