// Vectorized GF(2^8) span kernels with one-time runtime dispatch.
//
// Every hot path of the library — encoding, in-network storage, progressive
// decoding, batch RREF — reduces to span operations over GF(2^8): axpy
// (y ^= a*x), mul_region (dst = a*src; scale when dst == src) and combine
// (dst_r = sum_j c_rj*src_j, the coded payloads of the in-network store).
// Three kernel tiers compute identical bytes; the fastest one the running
// CPU supports is picked once, at first use:
//
//   kReference — byte-at-a-time lookups in the 64 KiB product table; the
//                seed implementation, kept as the oracle the other tiers
//                are tested against.
//   kAvx2      — split-nibble kernel: two 16-entry tables per multiplier
//                (products of the low and high nibble) live in YMM
//                registers and _mm256_shuffle_epi8 performs 32 table
//                lookups per instruction, unrolled to 64 bytes per
//                iteration.
//   kGfni      — AVX-512BW + GFNI: multiplying by a constant is GF(2)-linear
//                in the bits of x, so one GF2P8AFFINEQB applies it to 64
//                bytes as an 8x8 bit-matrix product (this works for any
//                field polynomial, 0x11D included); byte-masked loads and
//                stores handle the tail. Its combine accumulates in
//                registers: up to four consecutive rows with one support
//                share every source load, and each destination byte is
//                stored once.
//
// Two batch entry points tile those ops for cache reuse: gf256_axpy_batch
// applies one source row to many rows (decoder back-elimination) and
// gf256_combine_batch computes many rows from many sources through the
// active tier's combine.
//
// The vector tiers are compiled behind __x86_64__/__i386__ guards using
// GCC/Clang `target` attributes (no special -m flags needed) and chosen
// with __builtin_cpu_supports, so one binary runs everywhere; a host
// without AVX-512BW+GFNI runs the AVX2 tier. There is no override knob:
// tests and benchmarks reach a tier through gf256_kernel_ops(k).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prlc::gf {

enum class Gf256Kernel {
  kReference = 0,  ///< byte-wise 64 KiB-table loop (seed behaviour)
  kAvx2,           ///< vpshufb split-nibble, 64 bytes per iteration
  kGfni,           ///< GF2P8AFFINEQB on ZMM registers, masked tail
};

/// Function-pointer table for one kernel tier. All pointers are always
/// non-null. Spans may be empty (n == 0); `a` may be 0 or 1 — tiers must
/// handle every multiplier correctly, callers need not special-case.
struct Gf256KernelOps {
  const char* name;
  /// y[i] ^= a * x[i] for i in [0, n). y and x must not overlap.
  void (*axpy)(std::uint8_t* y, const std::uint8_t* x, std::uint8_t a, std::size_t n);
  /// dst[i] = a * src[i] for i in [0, n). dst == src is allowed (scale);
  /// partial overlap is not.
  void (*mul_region)(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t a,
                     std::size_t n);
  /// dsts[r][i] = sum_j coeff_rows[r][j] * srcs[j][i] for r in [0, rows)
  /// and i in [0, n): the rows x k coefficient matrix times k source rows.
  /// A row pays only for its nonzero terms, and a row with none is zeroed.
  /// Destinations must not overlap any source.
  void (*combine)(std::uint8_t* const* dsts, const std::uint8_t* const* coeff_rows,
                  std::size_t rows, const std::uint8_t* const* srcs, std::size_t k,
                  std::size_t n);
};

/// Tier name ("reference", "avx2", "gfni").
const char* gf256_kernel_name(Gf256Kernel k);

/// Every tier compiled into this binary, in ascending preference order.
std::vector<Gf256Kernel> gf256_compiled_kernels();

/// True when the tier is compiled in AND the running CPU can execute it.
bool gf256_kernel_runtime_ok(Gf256Kernel k);

/// Ops of a specific tier (tests, benchmarks). Requires
/// gf256_kernel_runtime_ok(k) before calling through the result.
const Gf256KernelOps& gf256_kernel_ops(Gf256Kernel k);

/// The tier the Gf256 span ops use: the best runtime-supported one, fixed
/// at first use, when it is also recorded in the obs gauge
/// "gf256.dispatch_variant".
Gf256Kernel gf256_active_kernel();

/// Ops of gf256_active_kernel().
const Gf256KernelOps& gf256_active_ops();

/// Cache tile of gf256_axpy_batch and gf256_combine_batch: 8 KiB leaves
/// room in L1 for the target chunk.
inline constexpr std::size_t kGf256TileBytes = 8192;

/// Batched multi-row axpy: ys[r] ^= coeffs[r] * x for r in [0, rows),
/// all rows n bytes long. Tiles x (kGf256TileBytes per tile) so one
/// cache-resident chunk of the source row is applied to every target
/// before moving on — the decoder's back-elimination step, where one new
/// pivot row updates many stored rows, is exactly this shape. Rows with
/// coeffs[r] == 0 are skipped. The first call records the tile in the obs
/// gauge "gf256.tile_bytes".
void gf256_axpy_batch(std::uint8_t* const* ys, const std::uint8_t* coeffs,
                      const std::uint8_t* x, std::size_t rows, std::size_t n);

/// Batched combine: the tile-major product D = C*S of a rows x k
/// coefficient matrix with k source rows of n bytes, dsts[r] =
/// sum_j coeff_rows[r][j] * srcs[j]; zero coefficients are skipped and a
/// row without nonzero ones is zeroed. The active tier's combine walks
/// kGf256TileBytes at a time, so one tile of every source is read from
/// memory once and then folded into every row from cache. The reference
/// and avx2 tiers build each row's tile by one mul_region and then one
/// axpy per further term; gfni folds each 128-byte slice of up to four
/// rows with one support in registers and stores it once. Destinations
/// must not overlap any source. Counts calls and source bytes folded in
/// the obs counters "gf256.combine_calls" and "gf256.combine_bytes".
void gf256_combine_batch(std::uint8_t* const* dsts, const std::uint8_t* const* coeff_rows,
                         std::size_t rows, const std::uint8_t* const* srcs, std::size_t k,
                         std::size_t n);

}  // namespace prlc::gf
