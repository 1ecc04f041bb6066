#include "gf/gf256_kernels.h"

#include <cstring>
#include <iterator>
#include <string>

#include "gf/gf256.h"
#include "obs/metrics.h"
#include "util/check.h"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define PRLC_GF256_X86 1
#include <immintrin.h>
#else
#define PRLC_GF256_X86 0
#endif

namespace prlc::gf {
namespace {

// ---------------------------------------------------------------------------
// kReference — the seed implementation: one lookup per byte in the 64 KiB
// product table. Kept verbatim as the oracle the AVX2 tier is
// differential-tested (and benchmarked) against.
// ---------------------------------------------------------------------------

void axpy_reference(std::uint8_t* y, const std::uint8_t* x, std::uint8_t a, std::size_t n) {
  if (a == 0) return;
  if (a == 1) {
    for (std::size_t i = 0; i < n; ++i) y[i] ^= x[i];
    return;
  }
  const std::uint8_t* row = Gf256::mul_row(a);
  for (std::size_t i = 0; i < n; ++i) y[i] ^= row[x[i]];
}

void mul_region_reference(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t a,
                          std::size_t n) {
  if (n == 0) return;
  if (a == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (a == 1) {
    if (dst != src) std::memcpy(dst, src, n);
    return;
  }
  const std::uint8_t* row = Gf256::mul_row(a);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

#if PRLC_GF256_X86

// ---------------------------------------------------------------------------
// Split-nibble product tables: lo[a][n] = a * n, hi[a][n] = a * (n << 4), so
// a * x == lo[a][x & 15] ^ hi[a][x >> 4]. 16-byte alignment lets the AVX2
// tier load each table with one aligned 128-bit load. Built bit-by-bit so
// the kernels are independent of the Gf256 product table they are
// differential-tested against.
// ---------------------------------------------------------------------------

std::uint8_t bitwise_mul(std::uint8_t a, std::uint8_t b) {
  std::uint16_t acc = 0;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & (1 << bit)) acc ^= static_cast<std::uint16_t>(a) << bit;
  }
  for (int bit = 15; bit >= 8; --bit) {
    if (acc & (1 << bit)) acc ^= static_cast<std::uint16_t>(Gf256::modulus()) << (bit - 8);
  }
  return static_cast<std::uint8_t>(acc);
}

struct NibbleTables {
  alignas(64) std::uint8_t lo[256][16];
  alignas(64) std::uint8_t hi[256][16];
  NibbleTables() {
    for (int a = 0; a < 256; ++a) {
      for (int n = 0; n < 16; ++n) {
        lo[a][n] = bitwise_mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(n));
        hi[a][n] = bitwise_mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(n << 4));
      }
    }
  }
};

const NibbleTables& nib() {
  static const NibbleTables t;
  return t;
}

// ---------------------------------------------------------------------------
// kAvx2 — vpshufb split-nibble kernels. Both nibble tables fit in one
// vector register each; shuffle_epi8 then performs a full 16-way table
// lookup per lane per instruction. Compiled with `target` attributes so no
// global -mavx2 flag is needed and the rest of the binary stays
// baseline-ISA; only ever called after a __builtin_cpu_supports check.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void axpy_avx2(std::uint8_t* y, const std::uint8_t* x,
                                               std::uint8_t a, std::size_t n) {
  if (a == 0) return;
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().lo[a])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().hi[a])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 32));
    const __m256i p0 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(x0, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x0, 4), mask)));
    const __m256i p1 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(x1, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x1, 4), mask)));
    const __m256i y0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i y1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), _mm256_xor_si256(y0, p0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i + 32), _mm256_xor_si256(y1, p1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(xv, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(xv, 4), mask)));
    const __m256i yv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), _mm256_xor_si256(yv, prod));
  }
  const std::uint8_t* tlo = nib().lo[a];
  const std::uint8_t* thi = nib().hi[a];
  for (; i < n; ++i) y[i] ^= tlo[x[i] & 15] ^ thi[x[i] >> 4];
}

__attribute__((target("avx2"))) void mul_region_avx2(std::uint8_t* dst,
                                                     const std::uint8_t* src,
                                                     std::uint8_t a, std::size_t n) {
  if (n == 0) return;
  if (a == 0) {
    std::memset(dst, 0, n);
    return;
  }
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().lo[a])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().hi[a])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(xv, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(xv, 4), mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), prod);
  }
  const std::uint8_t* tlo = nib().lo[a];
  const std::uint8_t* thi = nib().hi[a];
  for (; i < n; ++i) dst[i] = tlo[src[i] & 15] ^ thi[src[i] >> 4];
}

#endif  // PRLC_GF256_X86

// ---------------------------------------------------------------------------
// Tier registry + one-time dispatch.
// ---------------------------------------------------------------------------

constexpr Gf256KernelOps kReferenceOps = {"reference", axpy_reference, mul_region_reference};
#if PRLC_GF256_X86
constexpr Gf256KernelOps kAvx2Ops = {"avx2", axpy_avx2, mul_region_avx2};
#endif

constexpr Gf256Kernel kCompiledKernels[] = {
    Gf256Kernel::kReference,
#if PRLC_GF256_X86
    Gf256Kernel::kAvx2,
#endif
};

/// The best runtime-supported tier; records the dispatch gauges.
Gf256Kernel pick_kernel() {
  const Gf256Kernel k = gf256_kernel_runtime_ok(Gf256Kernel::kAvx2) ? Gf256Kernel::kAvx2
                                                                     : Gf256Kernel::kReference;
  obs::gauge(std::string("gf256.dispatch.") + gf256_kernel_name(k)).set(1);
  obs::gauge("gf256.dispatch_variant").set(static_cast<int>(k));
  return k;
}

}  // namespace

const char* gf256_kernel_name(Gf256Kernel k) {
  switch (k) {
    case Gf256Kernel::kReference:
      return "reference";
    case Gf256Kernel::kAvx2:
      return "avx2";
  }
  PRLC_ASSERT(false, "unknown GF(256) kernel variant");
}

std::vector<Gf256Kernel> gf256_compiled_kernels() {
  return {std::begin(kCompiledKernels), std::end(kCompiledKernels)};
}

bool gf256_kernel_runtime_ok(Gf256Kernel k) {
  switch (k) {
    case Gf256Kernel::kReference:
      return true;
    case Gf256Kernel::kAvx2:
#if PRLC_GF256_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  PRLC_ASSERT(false, "unknown GF(256) kernel variant");
}

const Gf256KernelOps& gf256_kernel_ops(Gf256Kernel k) {
  switch (k) {
    case Gf256Kernel::kReference:
      return kReferenceOps;
    case Gf256Kernel::kAvx2:
#if PRLC_GF256_X86
      return kAvx2Ops;
#else
      break;
#endif
  }
  PRLC_REQUIRE(false, "GF(256) kernel variant not compiled in");
}

Gf256Kernel gf256_active_kernel() {
  static const Gf256Kernel active = pick_kernel();
  return active;
}

const Gf256KernelOps& gf256_active_ops() {
  static const Gf256KernelOps& ops = gf256_kernel_ops(gf256_active_kernel());
  return ops;
}

void gf256_axpy_batch(std::uint8_t* const* ys, const std::uint8_t* coeffs,
                      const std::uint8_t* x, std::size_t rows, std::size_t n) {
  const Gf256KernelOps& ops = gf256_active_ops();
  static obs::Counter& batch_calls = obs::counter("gf256.axpy_batch_calls");
  static obs::Counter& batch_rows = obs::counter("gf256.axpy_batch_rows");
  static obs::Counter& batch_bytes = obs::counter("gf256.axpy_batch_bytes");
  batch_calls.add();
  batch_rows.add(rows);
  batch_bytes.add(rows * n);
  [[maybe_unused]] static const bool tile_recorded = [] {
    obs::gauge("gf256.tile_bytes").set(static_cast<std::int64_t>(kGf256TileBytes));
    return true;
  }();
  // Tile the shared source row so each chunk is applied to every target
  // while still L1/L2-resident.
  for (std::size_t off = 0; off < n; off += kGf256TileBytes) {
    const std::size_t len = n - off < kGf256TileBytes ? n - off : kGf256TileBytes;
    for (std::size_t r = 0; r < rows; ++r) {
      if (coeffs[r] == 0) continue;
      ops.axpy(ys[r] + off, x + off, coeffs[r], len);
    }
  }
}

}  // namespace prlc::gf
