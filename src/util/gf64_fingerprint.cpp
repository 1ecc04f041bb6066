#include "util/gf64_fingerprint.h"

#include <bit>
#include <iterator>

#include "util/check.h"
#include "util/kernel_tiers.h"
#include "util/random.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PRLC_FP_X86 1
#include <immintrin.h>
#else
#define PRLC_FP_X86 0
#endif

namespace prlc::util {

namespace {

// x^64 = x^4 + x^3 + x + 1 over GF(2). Folding the high word multiplies
// it by this low-degree remainder; the product reaches at most bit 67, so
// one second fold of those four bits finishes the reduction.
inline unsigned __int128 fold(std::uint64_t hi) {
  const auto h = static_cast<unsigned __int128>(hi);
  return (h << 4) ^ (h << 3) ^ (h << 1) ^ h;
}

/// lo + hi * x^64 reduced into GF(2^64).
inline std::uint64_t reduce(std::uint64_t lo, std::uint64_t hi) {
  const unsigned __int128 first = fold(hi);
  lo ^= static_cast<std::uint64_t>(first);
  lo ^= static_cast<std::uint64_t>(fold(static_cast<std::uint64_t>(first >> 64)));
  return lo;
}

inline std::uint64_t reduce(unsigned __int128 v) {
  return reduce(static_cast<std::uint64_t>(v), static_cast<std::uint64_t>(v >> 64));
}

/// v * x in GF(2^64).
inline std::uint64_t mul_x(std::uint64_t v) { return (v << 1) ^ ((v >> 63) != 0 ? 0x1Bu : 0u); }

}  // namespace

std::uint64_t gf64_mul(std::uint64_t a, std::uint64_t b) {
  unsigned __int128 acc = 0;
  unsigned __int128 shifted = a;
  while (b != 0) {
    if (b & 1) acc ^= shifted;
    shifted <<= 1;
    b >>= 1;
  }
  return reduce(acc);
}

std::uint64_t gf64_pow(std::uint64_t a, std::uint64_t e) {
  std::uint64_t result = 1;
  std::uint64_t base = a;
  while (e != 0) {
    if (e & 1) result = gf64_mul(result, base);
    base = gf64_mul(base, base);
    e >>= 1;
  }
  return result;
}

namespace {

/// p(b) for the GF(2^8) modulus 0x11D = x^8 + x^4 + x^3 + x^2 + 1,
/// evaluated in GF(2^64).
std::uint64_t eval_gf256_modulus(std::uint64_t b) {
  const std::uint64_t b2 = gf64_mul(b, b);
  const std::uint64_t b3 = gf64_mul(b2, b);
  const std::uint64_t b4 = gf64_mul(b2, b2);
  const std::uint64_t b8 = gf64_mul(b4, b4);
  return b8 ^ b4 ^ b3 ^ b2 ^ 1;
}

/// A root of 0x11D inside GF(2^64). Roots of a degree-8 GF(2)-irreducible
/// polynomial live in the unique copy of GF(2^8), i.e. the order-255
/// multiplicative subgroup. Project a candidate onto that subgroup with
/// the exact cofactor (2^64-1)/255 = 0x0101010101010101, then scan its
/// powers; if the candidate landed in a proper subgroup (u's order
/// divides 255 strictly), try the next one.
std::uint64_t find_embed_root() {
  constexpr std::uint64_t kCofactor = 0x0101010101010101ULL;
  for (std::uint64_t t = 2; t < 64; ++t) {
    const std::uint64_t u = gf64_pow(t, kCofactor);
    if (u == 1) continue;
    std::uint64_t b = u;
    for (int k = 1; k < 255; ++k) {
      if (eval_gf256_modulus(b) == 0) return b;
      b = gf64_mul(b, u);
    }
  }
  PRLC_ASSERT(false, "no GF(2^8) root found in GF(2^64)");
}

const std::array<std::uint64_t, 256>& embed_table() {
  static const std::array<std::uint64_t, 256> table = [] {
    const std::uint64_t alpha = find_embed_root();
    std::array<std::uint64_t, 8> alpha_pow;
    alpha_pow[0] = 1;
    for (std::size_t i = 1; i < 8; ++i) alpha_pow[i] = gf64_mul(alpha_pow[i - 1], alpha);
    std::array<std::uint64_t, 256> out{};
    for (std::size_t v = 0; v < 256; ++v) {
      std::uint64_t e = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        if (v & (std::size_t{1} << i)) e ^= alpha_pow[i];
      }
      out[v] = e;
    }
    return out;
  }();
  return table;
}

/// Fill the 256 entries of a byte slice of a GF(2)-linear map from the
/// images of its eight bits: t[b] = t[b without its lowest bit] ^ image.
void fill_slice(std::array<std::uint64_t, 256>& t, const std::uint64_t* bit_images) {
  t[0] = 0;
  for (unsigned b = 1; b < 256; ++b) {
    t[b] = t[b & (b - 1)] ^ bit_images[std::countr_zero(b)];
  }
}

/// Byte-sliced table of v -> v * c: slice k maps byte b to (b << 8k) * c.
void fill_mul_table(std::array<std::array<std::uint64_t, 256>, 8>& t, std::uint64_t c) {
  std::array<std::uint64_t, 64> images;  // images[i] = x^i * c
  images[0] = c;
  for (std::size_t i = 1; i < 64; ++i) images[i] = mul_x(images[i - 1]);
  for (std::size_t k = 0; k < 8; ++k) fill_slice(t[k], images.data() + 8 * k);
}

/// v * c through a byte-sliced multiply table.
inline std::uint64_t sliced_mul(const std::array<std::array<std::uint64_t, 256>, 8>& t,
                                std::uint64_t v) {
  std::uint64_t out = 0;
  for (std::size_t k = 0; k < 8; ++k) out ^= t[k][(v >> (8 * k)) & 0xff];
  return out;
}

/// GF2P8AFFINEQB encoding of the 8x8 bit matrix whose input bit t maps to
/// byte t of `images`: output bit i is row i, stored in byte 7 - i, and
/// row i holds bit i of every image — a bit transpose, then a byte swap.
std::uint64_t affine_matrix(std::uint64_t images) {
  std::uint64_t x = images;
  x = (x & 0xAA55AA55AA55AA55ULL) | ((x & 0x00AA00AA00AA00AAULL) << 7) |
      ((x >> 7) & 0x00AA00AA00AA00AAULL);
  x = (x & 0xCCCC3333CCCC3333ULL) | ((x & 0x0000CCCC0000CCCCULL) << 14) |
      ((x >> 14) & 0x0000CCCC0000CCCCULL);
  x = (x & 0xF0F0F0F00F0F0F0FULL) | ((x & 0x00000000F0F0F0F0ULL) << 28) |
      ((x >> 28) & 0x00000000F0F0F0F0ULL);
  return __builtin_bswap64(x);
}

/// v * x^64 in GF(2^64), i.e. v * (x^4 + x^3 + x + 1).
std::uint64_t mul_x64(std::uint64_t v) {
  const std::uint64_t x1 = mul_x(v);
  const std::uint64_t x3 = mul_x(mul_x(x1));
  return v ^ x1 ^ x3 ^ mul_x(x3);
}

/// Carry-less 64x64 -> 128-bit product, four bits of `b` per step: the
/// portable stand-in for PCLMULQDQ.
unsigned __int128 clmul_portable(std::uint64_t a, std::uint64_t b) {
  unsigned __int128 window[16];
  window[0] = 0;
  window[1] = a;
  for (std::size_t v = 2; v < 16; ++v) {
    window[v] = (v & 1) != 0 ? window[v - 1] ^ a : window[v / 2] << 1;
  }
  unsigned __int128 acc = 0;
  for (int shift = 60; shift >= 0; shift -= 4) acc = (acc << 4) ^ window[(b >> shift) & 15];
  return acc;
}

#if PRLC_FP_X86

/// VPERMB index that gathers byte k of each of the eight words in a 64-byte
/// block into every qword lane: lane o, byte j <- input byte 8j + k.
struct GatherIndex {
  alignas(64) std::uint8_t bytes[8][64];
  constexpr GatherIndex() : bytes{} {
    for (int k = 0; k < 8; ++k) {
      for (int o = 0; o < 8; ++o) {
        for (int j = 0; j < 8; ++j) bytes[k][8 * o + j] = static_cast<std::uint8_t>(8 * j + k);
      }
    }
  }
};
constexpr GatherIndex kGatherIndex;

/// VPERMB index of the 8x8 byte transpose: lane j, byte o <- byte 8o + j.
struct TransposeIndex {
  alignas(64) std::uint8_t bytes[64];
  constexpr TransposeIndex() : bytes{} {
    for (int j = 0; j < 8; ++j) {
      for (int o = 0; o < 8; ++o) bytes[8 * j + o] = static_cast<std::uint8_t>(8 * o + j);
    }
  }
};
constexpr TransposeIndex kTransposeIndex;

__attribute__((target("pclmul,sse4.1"))) inline __m128i clmul_hw(std::uint64_t a,
                                                                  std::uint64_t b) {
  return _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(a)),
                              _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
}

/// An unreduced 128-bit carry-less product, reduced into GF(2^64).
__attribute__((target("pclmul,sse4.1"))) inline std::uint64_t reduce_hw(__m128i v) {
  return reduce(static_cast<std::uint64_t>(_mm_cvtsi128_si64(v)),
                static_cast<std::uint64_t>(_mm_extract_epi64(v, 1)));
}

#endif  // PRLC_FP_X86

}  // namespace

std::uint64_t gf64_embed(std::uint8_t value) { return embed_table()[value]; }

Fingerprinter::Fingerprinter(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  do {
    point_ = splitmix64_next(sm);
  } while (point_ == 0);
  fill_mul_table(mul_r_, point_);

  // word_[7] is the embedding itself; each lower slice is one more factor r.
  const std::array<std::uint64_t, 256>& embed = embed_table();
  std::array<std::uint64_t, 8> images;
  for (std::size_t i = 0; i < 8; ++i) images[i] = embed[std::size_t{1} << i];
  for (std::size_t k = 8; k-- > 0;) {
    fill_slice(word_[k], images.data());
    for (std::uint64_t& image : images) image = sliced_mul(mul_r_, image);
  }
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t o = 0; o < 8; ++o) {
      std::uint64_t images_o = 0;  // byte t: byte o of the image of input bit t
      for (std::size_t t = 0; t < 8; ++t) {
        images_o |= ((word_[k][std::size_t{1} << t] >> (8 * o)) & 0xff) << (8 * t);
      }
      affine_[k][o] = affine_matrix(images_o);
    }
  }

  std::uint64_t r8 = point_;
  for (int i = 1; i < 8; ++i) r8 = sliced_mul(mul_r_, r8);
  fill_mul_table(mul_r8_, r8);
  r8_pow_[0] = 1;
  for (std::size_t i = 1; i < r8_pow_.size(); ++i) {
    r8_pow_[i] = sliced_mul(mul_r8_, r8_pow_[i - 1]);
  }
  for (std::size_t i = 0; i < r8_pow_.size(); ++i) r8_pow_hi_[i] = mul_x64(r8_pow_[i]);
}

/// The kernel tiers. A friend of Fingerprinter so they can read its tables.
struct FingerprintKernels {
  static std::uint64_t word(const Fingerprinter& f, const std::uint8_t* p) {
    return f.word_[0][p[0]] ^ f.word_[1][p[1]] ^ f.word_[2][p[2]] ^ f.word_[3][p[3]] ^
           f.word_[4][p[4]] ^ f.word_[5][p[5]] ^ f.word_[6][p[6]] ^ f.word_[7][p[7]];
  }

  /// Continue Horner from `acc` over n bytes: slice8 words, then bytes.
  static std::uint64_t horner_tail(const Fingerprinter& f, std::uint64_t acc,
                                   const std::uint8_t* p, std::size_t n) {
    for (; n >= 8; p += 8, n -= 8) acc = sliced_mul(f.mul_r8_, acc) ^ word(f, p);
    const std::array<std::uint64_t, 256>& embed = embed_table();
    for (; n > 0; ++p, --n) acc = sliced_mul(f.mul_r_, acc) ^ embed[*p];
    return acc;
  }

  static std::uint64_t reference(const Fingerprinter& f, std::span<const std::uint8_t> payload) {
    const std::array<std::uint64_t, 256>& embed = embed_table();
    std::uint64_t acc = 0;
    for (const std::uint8_t byte : payload) acc = sliced_mul(f.mul_r_, acc) ^ embed[byte];
    return acc;
  }

  static std::uint64_t slice8(const Fingerprinter& f, std::span<const std::uint8_t> payload) {
    return horner_tail(f, 0, payload.data(), payload.size());
  }

#if PRLC_FP_X86
  __attribute__((target("pclmul,sse4.1"))) static std::uint64_t pclmul(
      const Fingerprinter& f, std::span<const std::uint8_t> payload) {
    const std::uint8_t* p = payload.data();
    std::size_t n = payload.size();
    if (n < 32) return horner_tail(f, 0, p, n);
    const auto imm = [](std::uint64_t v) { return static_cast<long long>(v); };
    // acc (lo + hi x^64) * r^32, then E0 r^24 ^ E1 r^16 ^ E2 r^8 ^ E3.
    const __m128i k_acc = _mm_set_epi64x(imm(f.r8_pow_hi_[4]), imm(f.r8_pow_[4]));
    const __m128i k_e01 = _mm_set_epi64x(imm(f.r8_pow_[2]), imm(f.r8_pow_[3]));
    const __m128i k_e2 = _mm_cvtsi64_si128(imm(f.r8_pow_[1]));
    __m128i acc = _mm_setzero_si128();
    for (; n >= 32; p += 32, n -= 32) {
      const __m128i e01 = _mm_set_epi64x(imm(word(f, p + 8)), imm(word(f, p)));
      const __m128i e23 = _mm_set_epi64x(imm(word(f, p + 24)), imm(word(f, p + 16)));
      const __m128i advanced = _mm_xor_si128(_mm_clmulepi64_si128(acc, k_acc, 0x00),
                                             _mm_clmulepi64_si128(acc, k_acc, 0x11));
      const __m128i words = _mm_xor_si128(
          _mm_xor_si128(_mm_clmulepi64_si128(e01, k_e01, 0x00),
                        _mm_clmulepi64_si128(e01, k_e01, 0x11)),
          _mm_xor_si128(_mm_clmulepi64_si128(e23, k_e2, 0x00), _mm_srli_si128(e23, 8)));
      acc = _mm_xor_si128(advanced, words);
    }
    return horner_tail(f, reduce_hw(acc), p, n);
  }

  __attribute__((target("avx512f,avx512bw,avx512vbmi,gfni,vpclmulqdq,pclmul,sse4.1")))
  static std::uint64_t avx512(const Fingerprinter& f, std::span<const std::uint8_t> payload) {
    const std::uint8_t* p = payload.data();
    std::size_t n = payload.size();
    if (n < 64) return horner_tail(f, 0, p, n);
    __m512i gather[8];
    __m512i matrix[8];
    for (int k = 0; k < 8; ++k) {
      gather[k] = _mm512_load_si512(kGatherIndex.bytes[k]);
      matrix[k] = _mm512_loadu_si512(f.affine_[k].data());
    }
    const __m512i transpose = _mm512_load_si512(kTransposeIndex.bytes);
    const auto r64 = static_cast<long long>(f.r8_pow_[8]);
    const auto r64_hi = static_cast<long long>(f.r8_pow_hi_[8]);
    const __m512i k64 = _mm512_set4_epi64(r64_hi, r64, r64_hi, r64);
    // The maskz forms with an all-ones mask compile to plain VPERMB; they
    // sidestep a GCC false -Wmaybe-uninitialized in the unmasked intrinsic.
    constexpr __mmask64 kAll = ~__mmask64{0};
    // Word slot j of every 64-byte block feeds its own Horner chain in
    // steps of r^64: even slots in the lanes of `even`, odd in `odd`, each
    // an unreduced 128-bit value.
    __m512i even = _mm512_setzero_si512();
    __m512i odd = _mm512_setzero_si512();
    for (; n >= 64; p += 64, n -= 64) {
      const __m512i block = _mm512_loadu_si512(p);
      // y: lane o, byte j = byte o of E(word j).
      __m512i y = _mm512_setzero_si512();
#pragma GCC unroll 8
      for (int k = 0; k < 8; ++k) {
        const __m512i byte_k = _mm512_maskz_permutexvar_epi8(kAll, gather[k], block);
        y = _mm512_xor_si512(y, _mm512_gf2p8affine_epi64_epi8(byte_k, matrix[k], 0));
      }
      const __m512i e = _mm512_maskz_permutexvar_epi8(kAll, transpose, y);  // qword j = E(w_j)
      even = _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(even, k64, 0x00),
                                       _mm512_clmulepi64_epi128(even, k64, 0x11),
                                       _mm512_maskz_mov_epi64(0x55, e), 0x96);
      odd = _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(odd, k64, 0x00),
                                      _mm512_clmulepi64_epi128(odd, k64, 0x11),
                                      _mm512_bsrli_epi128(e, 8), 0x96);
    }
    alignas(64) std::uint64_t lanes[2][8];
    _mm512_store_si512(lanes[0], even);
    _mm512_store_si512(lanes[1], odd);
    // Slot j still owes a factor r^(8(7-j)).
    __m128i acc = _mm_setzero_si128();
    for (std::size_t j = 0; j < 8; ++j) {
      const std::uint64_t* lane = lanes[j & 1] + 2 * (j >> 1);
      acc = _mm_xor_si128(acc, clmul_hw(reduce(lane[0], lane[1]), f.r8_pow_[7 - j]));
    }
    return horner_tail(f, reduce_hw(acc), p, n);
  }
#endif  // PRLC_FP_X86
};

namespace {

// --- combine: sum_j embed(c_j) * f_j -----------------------------------------

std::uint64_t combine_reference(std::span<const std::uint8_t> coeffs,
                                std::span<const std::uint64_t> fingerprints) {
  std::uint64_t acc = 0;
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] == 0) continue;
    acc ^= gf64_mul(gf64_embed(coeffs[j]), fingerprints[j]);
  }
  return acc;
}

std::uint64_t combine_portable(std::span<const std::uint8_t> coeffs,
                               std::span<const std::uint64_t> fingerprints) {
  const std::array<std::uint64_t, 256>& embed = embed_table();
  unsigned __int128 acc = 0;
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] != 0) acc ^= clmul_portable(embed[coeffs[j]], fingerprints[j]);
  }
  return reduce(acc);
}

#if PRLC_FP_X86

__attribute__((target("pclmul,sse4.1"))) std::uint64_t combine_pclmul(
    std::span<const std::uint8_t> coeffs, std::span<const std::uint64_t> fingerprints) {
  const std::array<std::uint64_t, 256>& embed = embed_table();
  __m128i acc = _mm_setzero_si128();
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] != 0) acc = _mm_xor_si128(acc, clmul_hw(embed[coeffs[j]], fingerprints[j]));
  }
  return reduce_hw(acc);
}

#endif  // PRLC_FP_X86

// --- the tier table (util/kernel_tiers.h picks from it) ------------------------

constexpr KernelTier<FingerprintKernelOps> kTiers[] = {
    {{"reference", FingerprintKernels::reference, combine_reference}},
    {{"slice8", FingerprintKernels::slice8, combine_portable}},
#if PRLC_FP_X86
    {{"pclmul", FingerprintKernels::pclmul, combine_pclmul},
     [] { return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"); }},
    {{"avx512", FingerprintKernels::avx512, combine_pclmul},
     [] {
       return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1") &&
              __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
              __builtin_cpu_supports("avx512vbmi") && __builtin_cpu_supports("gfni") &&
              __builtin_cpu_supports("vpclmulqdq");
     }},
#endif
};
#if PRLC_FP_X86
static_assert(std::size(kTiers) == static_cast<std::size_t>(FingerprintKernel::kAvx512) + 1);
#endif
constexpr KernelTable<FingerprintKernel, FingerprintKernelOps> kTable{kTiers};

const FingerprintKernelOps& active_ops() {
  static const FingerprintKernelOps& ops = fingerprint_kernel_ops(fingerprint_active_kernel());
  return ops;
}

}  // namespace

const char* fingerprint_kernel_name(FingerprintKernel k) { return kTable.ops(k).name; }

std::vector<FingerprintKernel> fingerprint_compiled_kernels() { return kTable.compiled(); }

bool fingerprint_kernel_runtime_ok(FingerprintKernel k) { return kTable.runtime_ok(k); }

const FingerprintKernelOps& fingerprint_kernel_ops(FingerprintKernel k) { return kTable.ops(k); }

FingerprintKernel fingerprint_active_kernel() {
  static const FingerprintKernel active = kTable.best();
  return active;
}

std::uint64_t Fingerprinter::fingerprint(std::span<const std::uint8_t> payload) const {
  return active_ops().fingerprint(*this, payload);
}

std::uint64_t Fingerprinter::combine(std::span<const std::uint8_t> coeffs,
                                     std::span<const std::uint64_t> fingerprints) const {
  PRLC_REQUIRE(coeffs.size() == fingerprints.size(),
               "combine needs one fingerprint per coefficient");
  return active_ops().combine(coeffs, fingerprints);
}

FingerprintManifest build_manifest(std::uint64_t seed,
                                   std::span<const std::uint8_t> source,
                                   std::size_t block_size) {
  PRLC_REQUIRE(block_size > 0, "manifest block size must be positive");
  PRLC_REQUIRE(source.size() % block_size == 0,
               "source bytes must be a whole number of blocks");
  const Fingerprinter fp(seed);
  FingerprintManifest manifest;
  manifest.seed = seed;
  manifest.block_size = block_size;
  manifest.fingerprints.reserve(source.size() / block_size);
  for (std::size_t off = 0; off < source.size(); off += block_size) {
    manifest.fingerprints.push_back(fp.fingerprint(source.subspan(off, block_size)));
  }
  return manifest;
}

}  // namespace prlc::util
