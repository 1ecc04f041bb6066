#include "gf/gf256_kernels.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "gf/gf256.h"
#include "obs/metrics.h"
#include "util/kernel_tiers.h"

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
// product table. Kept verbatim as the oracle the vector tiers are
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

/// The combine of the reference and avx2 tiers, a tile-local chain: per
/// tile, each row's tile is one mul_region for its first nonzero term and
/// one axpy per further term, on a destination tile that stays in L1.
template <auto Axpy, auto MulRegion>
void combine_chain(std::uint8_t* const* dsts, const std::uint8_t* const* coeff_rows,
                   std::size_t rows, const std::uint8_t* const* srcs, std::size_t k,
                   std::size_t n) {
  for (std::size_t off = 0; off < n; off += kGf256TileBytes) {
    const std::size_t len = std::min(n - off, kGf256TileBytes);
    for (std::size_t r = 0; r < rows; ++r) {
      std::uint8_t* dst = dsts[r] + off;
      bool first = true;
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint8_t c = coeff_rows[r][j];
        if (c == 0) continue;
        if (first) {
          MulRegion(dst, srcs[j] + off, c, len);
          first = false;
        } else {
          Axpy(dst, srcs[j] + off, c, len);
        }
      }
      if (first) std::memset(dst, 0, len);
    }
  }
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

// ---------------------------------------------------------------------------
// kGfni — GF2P8AFFINEQB kernels. Multiplying by a constant a is GF(2)-linear
// in the bits of x, so a*x is one 8x8 bit-matrix product, whatever the field
// polynomial. GF2P8AFFINEQB applies such a matrix to all 64 bytes of a ZMM
// register in one instruction; byte-masked loads and stores (AVX-512BW)
// cover the tail, so there is no scalar loop. The 256 matrices (2 KiB) are
// built once from bitwise_mul.
// ---------------------------------------------------------------------------

struct AffineTables {
  alignas(64) std::uint64_t mul[256];
  AffineTables() {
    // GF2P8AFFINEQB computes bit i of each result byte as the parity of
    // (matrix byte 7-i) AND x; so bit j of that byte is bit i of a * 2^j.
    for (int a = 0; a < 256; ++a) {
      std::uint64_t m = 0;
      for (int j = 0; j < 8; ++j) {
        const std::uint8_t column = bitwise_mul(static_cast<std::uint8_t>(a),
                                                static_cast<std::uint8_t>(1 << j));
        for (int i = 0; i < 8; ++i) {
          if ((column >> i) & 1) m |= std::uint64_t{1} << (8 * (7 - i) + j);
        }
      }
      mul[a] = m;
    }
  }
};

const AffineTables& affine() {
  static const AffineTables t;
  return t;
}

#define PRLC_GF256_GFNI "avx512f,avx512bw,gfni"

/// Byte mask selecting the first n (< 64) lanes.
__attribute__((target(PRLC_GF256_GFNI))) inline __mmask64 tail_mask(std::size_t n) {
  return (__mmask64{1} << n) - 1;
}

__attribute__((target(PRLC_GF256_GFNI))) inline __m512i gf_mul(__m512i x, __m512i matrix) {
  return _mm512_gf2p8affine_epi64_epi8(x, matrix, 0);
}

__attribute__((target(PRLC_GF256_GFNI))) void axpy_gfni(std::uint8_t* y, const std::uint8_t* x,
                                                        std::uint8_t a, std::size_t n) {
  if (a == 0) return;
  const __m512i m = _mm512_set1_epi64(static_cast<long long>(affine().mul[a]));
  std::size_t i = 0;
  for (; i + 256 <= n; i += 256) {
    for (std::size_t q = 0; q < 256; q += 64) {
      const __m512i p = gf_mul(_mm512_loadu_si512(x + i + q), m);
      _mm512_storeu_si512(y + i + q, _mm512_xor_si512(_mm512_loadu_si512(y + i + q), p));
    }
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i p = gf_mul(_mm512_loadu_si512(x + i), m);
    _mm512_storeu_si512(y + i, _mm512_xor_si512(_mm512_loadu_si512(y + i), p));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    const __m512i p = gf_mul(_mm512_maskz_loadu_epi8(k, x + i), m);
    _mm512_mask_storeu_epi8(y + i, k, _mm512_xor_si512(_mm512_maskz_loadu_epi8(k, y + i), p));
  }
}

__attribute__((target(PRLC_GF256_GFNI))) void mul_region_gfni(std::uint8_t* dst,
                                                              const std::uint8_t* src,
                                                              std::uint8_t a, std::size_t n) {
  const __m512i m = _mm512_set1_epi64(static_cast<long long>(affine().mul[a]));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    _mm512_storeu_si512(dst + i, gf_mul(_mm512_loadu_si512(src + i), m));
  }
  if (i < n) {
    const __mmask64 k = tail_mask(n - i);
    _mm512_mask_storeu_epi8(dst + i, k, gf_mul(_mm512_maskz_loadu_epi8(k, src + i), m));
  }
}

/// Rows the gfni combine blocks together: each source slice it loads feeds
/// this many rows' accumulators.
constexpr std::size_t kBlockRows = 4;

/// Up to kBlockRows consecutive rows with the same nonzero columns. Their
/// terms are entries [term, term + terms) of the combine's source array,
/// one per shared column, and their affine matrices start at entry `mat`
/// of its matrix array: `rows` per column, one per row of the block.
struct RowBlock {
  std::size_t row;
  std::size_t rows;
  std::size_t term;
  std::size_t terms;
  std::size_t mat;
};

/// One 128-byte slice (or the masked tail of one, lanes k0 | k1) of a
/// block's R rows at byte `at`: every term's two source vectors are loaded
/// once and folded into 2R accumulators, row r's with term t's matrix
/// mat[t * R + r], and each row's slice is stored once.
template <std::size_t R>
__attribute__((target(PRLC_GF256_GFNI), always_inline)) inline void fold_slice(
    std::uint8_t* const* dst, const std::uint8_t* const* src, const std::uint64_t* mat,
    std::size_t terms, std::size_t at, __mmask64 k0, __mmask64 k1) {
  // The row loops are unrolled so that the accumulators live in registers.
  __m512i acc[R][2];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) acc[r][0] = acc[r][1] = _mm512_setzero_si512();
  for (std::size_t t = 0; t < terms; ++t) {
    const __m512i x0 = _mm512_maskz_loadu_epi8(k0, src[t] + at);
    const __m512i x1 = _mm512_maskz_loadu_epi8(k1, src[t] + at + 64);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const __m512i m = _mm512_set1_epi64(static_cast<long long>(mat[t * R + r]));
      acc[r][0] = _mm512_xor_si512(acc[r][0], gf_mul(x0, m));
      acc[r][1] = _mm512_xor_si512(acc[r][1], gf_mul(x1, m));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    _mm512_mask_storeu_epi8(dst[r] + at, k0, acc[r][0]);
    _mm512_mask_storeu_epi8(dst[r] + at + 64, k1, acc[r][1]);
  }
}

/// Bytes [off, off + len) of one block's R rows, slice by slice.
template <std::size_t R>
__attribute__((target(PRLC_GF256_GFNI))) void fold_block(std::uint8_t* const* dst,
                                                         const std::uint8_t* const* src,
                                                         const std::uint64_t* mat,
                                                         std::size_t terms, std::size_t off,
                                                         std::size_t len) {
  constexpr __mmask64 kAll = ~__mmask64{0};
  const std::size_t end = off + len;
  std::size_t at = off;
  for (; at + 128 <= end; at += 128) fold_slice<R>(dst, src, mat, terms, at, kAll, kAll);
  if (at < end) {
    const std::size_t rest = end - at;
    fold_slice<R>(dst, src, mat, terms, at, rest >= 64 ? kAll : tail_mask(rest),
                  rest > 64 ? tail_mask(rest - 64) : 0);
  }
}

__attribute__((target(PRLC_GF256_GFNI))) void combine_gfni(
    std::uint8_t* const* dsts, const std::uint8_t* const* coeff_rows, std::size_t rows,
    const std::uint8_t* const* srcs, std::size_t k, std::size_t n) {
  if (n == 0) return;
  // Plan: split the rows into blocks of one support, zeroing every row
  // with none, and lay out each block's source rows and matrices.
  const auto same_support = [k](const std::uint8_t* a, const std::uint8_t* b) {
    for (std::size_t j = 0; j < k; ++j) {
      if ((a[j] == 0) != (b[j] == 0)) return false;
    }
    return true;
  };
  std::vector<RowBlock> blocks;
  std::vector<const std::uint8_t*> term_src;
  std::vector<std::uint64_t> term_mat;
  for (std::size_t r = 0; r < rows;) {
    const std::uint8_t* lead = coeff_rows[r];
    RowBlock block{r, 1, term_src.size(), 0, term_mat.size()};
    while (block.rows < kBlockRows && r + block.rows < rows &&
           same_support(lead, coeff_rows[r + block.rows])) {
      ++block.rows;
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (lead[j] == 0) continue;
      term_src.push_back(srcs[j]);
      for (std::size_t i = 0; i < block.rows; ++i) {
        term_mat.push_back(affine().mul[coeff_rows[r + i][j]]);
      }
    }
    block.terms = term_src.size() - block.term;
    if (block.terms == 0) {
      for (std::size_t i = 0; i < block.rows; ++i) std::memset(dsts[r + i], 0, n);
    } else {
      blocks.push_back(block);
    }
    r += block.rows;
  }
  // Fold tile by tile, so each source tile is read from memory once.
  static_assert(kBlockRows == 4, "one fold_block per block height");
  constexpr decltype(&fold_block<1>) kFold[kBlockRows + 1] = {
      nullptr, fold_block<1>, fold_block<2>, fold_block<3>, fold_block<4>};
  for (std::size_t off = 0; off < n; off += kGf256TileBytes) {
    const std::size_t len = std::min(n - off, kGf256TileBytes);
    for (const RowBlock& b : blocks) {
      kFold[b.rows](dsts + b.row, term_src.data() + b.term, term_mat.data() + b.mat, b.terms,
                    off, len);
    }
  }
}

#endif  // PRLC_GF256_X86

// ---------------------------------------------------------------------------
// The tier table (util/kernel_tiers.h picks from it).
// ---------------------------------------------------------------------------

constexpr KernelTier<Gf256KernelOps> kTiers[] = {
    {{"reference", axpy_reference, mul_region_reference,
      combine_chain<axpy_reference, mul_region_reference>}},
#if PRLC_GF256_X86
    {{"avx2", axpy_avx2, mul_region_avx2, combine_chain<axpy_avx2, mul_region_avx2>},
     [] { return __builtin_cpu_supports("avx2") != 0; }},
    {{"gfni", axpy_gfni, mul_region_gfni, combine_gfni},
     [] {
       return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
              __builtin_cpu_supports("gfni");
     }},
#endif
};
#if PRLC_GF256_X86
static_assert(std::size(kTiers) == static_cast<std::size_t>(Gf256Kernel::kGfni) + 1);
#endif
constexpr KernelTable<Gf256Kernel, Gf256KernelOps> kTable{kTiers};

}  // namespace

const char* gf256_kernel_name(Gf256Kernel k) { return kTable.ops(k).name; }

std::vector<Gf256Kernel> gf256_compiled_kernels() { return kTable.compiled(); }

bool gf256_kernel_runtime_ok(Gf256Kernel k) { return kTable.runtime_ok(k); }

const Gf256KernelOps& gf256_kernel_ops(Gf256Kernel k) { return kTable.ops(k); }

Gf256Kernel gf256_active_kernel() {
  static const Gf256Kernel active = [] {
    const Gf256Kernel k = kTable.best();
    obs::gauge(std::string("gf256.dispatch.") + gf256_kernel_name(k)).set(1);
    obs::gauge("gf256.dispatch_variant").set(static_cast<int>(k));
    return k;
  }();
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

void gf256_combine_batch(std::uint8_t* const* dsts, const std::uint8_t* const* coeff_rows,
                         std::size_t rows, const std::uint8_t* const* srcs, std::size_t k,
                         std::size_t n) {
  static obs::Counter& combine_calls = obs::counter("gf256.combine_calls");
  static obs::Counter& combine_bytes = obs::counter("gf256.combine_bytes");
  combine_calls.add();
  if (obs::enabled()) {  // counting the terms scans every coefficient
    std::size_t terms = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      terms += k - static_cast<std::size_t>(std::count(coeff_rows[r], coeff_rows[r] + k, 0));
    }
    combine_bytes.add(terms * n);
  }
  gf256_active_ops().combine(dsts, coeff_rows, rows, srcs, k, n);
}

}  // namespace prlc::gf
