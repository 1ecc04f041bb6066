#include "util/crc32.h"

#include <array>
#include <iterator>

#include "util/kernel_tiers.h"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define PRLC_CRC32_X86 1
#include <immintrin.h>
#else
#define PRLC_CRC32_X86 0
#endif

namespace prlc {

namespace {

constexpr std::uint32_t kReflectedPoly = 0xEDB88320u;

using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the classic byte table; t[k][i] is the CRC register after byte
/// i followed by k zero bytes, so one step folds eight bytes at once.
SliceTables build_slice_tables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kReflectedPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

const SliceTables& slice_tables() {
  static const SliceTables tables = build_slice_tables();
  return tables;
}

// ---------------------------------------------------------------------------
// kReference — the seed loop, one table lookup per byte.
// ---------------------------------------------------------------------------

std::uint32_t crc32_reference(std::span<const std::uint8_t> data, std::uint32_t seed) {
  const auto& table = slice_tables()[0];
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// kSlice8 — eight bytes per step. Works on the raw (pre-inverted) register
// so the folding tiers can finish their remainder with it.
// ---------------------------------------------------------------------------

std::uint32_t slice8_update(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const SliceTables& t = slice_tables();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

std::uint32_t crc32_slice8(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return slice8_update(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// kPclmul / kVpclmul — carry-less folding. A 128-bit lane L holding message
// bits that sit D bits before the lane they are folded into is replaced by
// L.lo * (x^(D+32) mod P) ^ L.hi * (x^(D-32) mod P), both in the bit-
// reflected domain (hence the reflect and the extra shift by one). The
// constants are derived here rather than copied, for every distance used.
// ---------------------------------------------------------------------------

#if PRLC_CRC32_X86

constexpr std::uint32_t kNormalPoly = 0x04C11DB7u;

/// x^e mod P in normal (most-significant-first) bit order.
constexpr std::uint32_t xpow_mod(unsigned e) {
  std::uint32_t v = 1;
  for (unsigned i = 0; i < e; ++i) v = (v & 0x80000000u) ? (v << 1) ^ kNormalPoly : v << 1;
  return v;
}

constexpr std::uint32_t reflect32(std::uint32_t v) {
  std::uint32_t out = 0;
  for (int i = 0; i < 32; ++i) out |= ((v >> i) & 1u) << (31 - i);
  return out;
}

constexpr std::uint64_t fold_constant(unsigned e) {
  return static_cast<std::uint64_t>(reflect32(xpow_mod(e))) << 1;
}

/// {multiplier of the low qword, multiplier of the high qword} for a fold
/// across `bits` bits.
struct FoldPair {
  std::uint64_t lo;
  std::uint64_t hi;
};
constexpr FoldPair fold_pair(unsigned bits) {
  return {fold_constant(bits + 32), fold_constant(bits - 32)};
}

// The published constants of the 4x128 fold, as a check on the derivation.
static_assert(fold_pair(512).lo == 0x154442bd4 && fold_pair(512).hi == 0x1c6e41596);
static_assert(fold_pair(128).lo == 0x1751997d0 && fold_pair(128).hi == 0xccaa009e);

constexpr FoldPair kFold16 = fold_pair(128);    // one 16-byte lane
constexpr FoldPair kFold64 = fold_pair(512);    // four lanes / one zmm
constexpr FoldPair kFold256 = fold_pair(2048);  // four zmm registers

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold_constants(FoldPair k) {
  return _mm_set_epi64x(static_cast<long long>(k.hi), static_cast<long long>(k.lo));
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x * x^D folded onto `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(__m128i x, __m128i k,
                                                                __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Fold the remaining whole 16-byte lanes into `x`, then finish the 128-bit
/// remainder and the tail bytes with slicing-by-8 from a zero register.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t finish_fold(__m128i x,
                                                                    const std::uint8_t* p,
                                                                    std::size_t n) {
  const __m128i k16 = fold_constants(kFold16);
  for (; n >= 16; p += 16, n -= 16) {
    x = fold16(x, k16, load16(p));
  }
  alignas(16) std::uint8_t rem[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(rem), x);
  return slice8_update(slice8_update(0, rem, 16), p, n);
}

__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_pclmul(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (n < 64) return slice8_update(c, p, n) ^ 0xFFFFFFFFu;

  __m128i x0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;
  const __m128i k64 = fold_constants(kFold64);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k64, load16(p));
    x1 = fold16(x1, k64, load16(p + 16));
    x2 = fold16(x2, k64, load16(p + 32));
    x3 = fold16(x3, k64, load16(p + 48));
  }
  const __m128i k16 = fold_constants(kFold16);
  __m128i x = fold16(fold16(fold16(x0, k16, x1), k16, x2), k16, x3);
  return finish_fold(x, p, n) ^ 0xFFFFFFFFu;
}

#define PRLC_CRC32_AVX512 "avx512f,vpclmulqdq,pclmul,sse4.1"

__attribute__((target(PRLC_CRC32_AVX512))) inline __m512i fold_constants512(FoldPair k) {
  const auto lo = static_cast<long long>(k.lo);
  const auto hi = static_cast<long long>(k.hi);
  return _mm512_set4_epi64(hi, lo, hi, lo);
}

__attribute__((target(PRLC_CRC32_AVX512))) inline __m512i fold64(__m512i z, __m512i k,
                                                                 __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(z, k, 0x00),
                                   _mm512_clmulepi64_epi128(z, k, 0x11), next, 0x96);
}

__attribute__((target(PRLC_CRC32_AVX512))) std::uint32_t crc32_vpclmul(
    std::span<const std::uint8_t> data, std::uint32_t seed) {
  if (data.size() < 256) return crc32_pclmul(data, seed);
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  const std::uint32_t c = seed ^ 0xFFFFFFFFu;

  __m512i z0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(c))));
  __m512i z1 = _mm512_loadu_si512(p + 64);
  __m512i z2 = _mm512_loadu_si512(p + 128);
  __m512i z3 = _mm512_loadu_si512(p + 192);
  p += 256;
  n -= 256;
  const __m512i k256 = fold_constants512(kFold256);
  for (; n >= 256; p += 256, n -= 256) {
    z0 = fold64(z0, k256, _mm512_loadu_si512(p));
    z1 = fold64(z1, k256, _mm512_loadu_si512(p + 64));
    z2 = fold64(z2, k256, _mm512_loadu_si512(p + 128));
    z3 = fold64(z3, k256, _mm512_loadu_si512(p + 192));
  }
  const __m512i k64 = fold_constants512(kFold64);
  const __m512i z = fold64(fold64(fold64(z0, k64, z1), k64, z2), k64, z3);
  alignas(64) std::uint8_t lanes[64];
  _mm512_store_si512(lanes, z);
  const __m128i k16 = fold_constants(kFold16);
  __m128i x = fold16(load16(lanes), k16, load16(lanes + 16));
  x = fold16(x, k16, load16(lanes + 32));
  x = fold16(x, k16, load16(lanes + 48));
  return finish_fold(x, p, n) ^ 0xFFFFFFFFu;
}

#undef PRLC_CRC32_AVX512

#endif  // PRLC_CRC32_X86

constexpr KernelTier<Crc32KernelOps> kTiers[] = {
    {{"reference", crc32_reference}},
    {{"slice8", crc32_slice8}},
#if PRLC_CRC32_X86
    {{"pclmul", crc32_pclmul},
     [] { return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"); }},
    {{"vpclmul", crc32_vpclmul},
     [] {
       return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1") &&
              __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("vpclmulqdq");
     }},
#endif
};
#if PRLC_CRC32_X86
static_assert(std::size(kTiers) == static_cast<std::size_t>(Crc32Kernel::kVpclmul) + 1);
#endif
constexpr KernelTable<Crc32Kernel, Crc32KernelOps> kTable{kTiers};

}  // namespace

const char* crc32_kernel_name(Crc32Kernel k) { return kTable.ops(k).name; }

std::vector<Crc32Kernel> crc32_compiled_kernels() { return kTable.compiled(); }

bool crc32_kernel_runtime_ok(Crc32Kernel k) { return kTable.runtime_ok(k); }

const Crc32KernelOps& crc32_kernel_ops(Crc32Kernel k) { return kTable.ops(k); }

Crc32Kernel crc32_active_kernel() {
  static const Crc32Kernel active = kTable.best();
  return active;
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const Crc32KernelOps& ops = crc32_kernel_ops(crc32_active_kernel());
  return ops.crc32(data, seed);
}

}  // namespace prlc
