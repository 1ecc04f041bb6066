// CRC-32 (IEEE 802.3 polynomial, reflected) for wire-format integrity.
//
// Every frame is checked once when it is encoded and once per fetch, so
// the CRC runs over every payload byte the read path touches. Several
// kernel tiers compute the identical value; the fastest one the running
// CPU supports is picked once, at first use:
//
//   kReference — byte-at-a-time lookups in one 256-entry table; the seed
//                implementation, kept as the oracle the others are tested
//                against.
//   kSlice8    — portable slicing-by-8: eight 256-entry tables, one
//                8-byte word per step.
//   kPclmul    — carry-less folding (Intel's "Fast CRC Computation Using
//                PCLMULQDQ"): four 128-bit lanes folded 64 bytes at a
//                time, then one lane 16 bytes at a time.
//   kVpclmul   — the same folding on four 512-bit registers, 256 bytes
//                per step (AVX-512 VPCLMULQDQ).
//
// The folding tiers reduce the message to one 128-bit remainder that is
// congruent to it, and finish that remainder and any tail bytes with the
// slicing-by-8 loop — no Barrett step. SIMD tiers are compiled with GCC/
// Clang `target` attributes and carry a __builtin_cpu_supports check in
// the family's tier table, which the rule in util/kernel_tiers.h picks
// from, so one binary runs everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace prlc {

enum class Crc32Kernel {
  kReference = 0,  ///< byte-wise single-table loop (seed behaviour)
  kSlice8,         ///< portable slicing-by-8
  kPclmul,         ///< 128-bit PCLMULQDQ folding
  kVpclmul,        ///< 512-bit VPCLMULQDQ folding
};

/// One kernel tier. `crc32` has the contract of the free function below.
struct Crc32KernelOps {
  const char* name;
  std::uint32_t (*crc32)(std::span<const std::uint8_t> data, std::uint32_t seed);
};

/// Name of a compiled tier ("reference", "slice8", "pclmul", "vpclmul").
const char* crc32_kernel_name(Crc32Kernel k);

/// Every tier compiled into this binary, in ascending preference order.
std::vector<Crc32Kernel> crc32_compiled_kernels();

/// True when the tier is compiled in AND the running CPU can execute it.
bool crc32_kernel_runtime_ok(Crc32Kernel k);

/// Ops of a specific tier (tests, benchmarks); throws PreconditionError
/// when it is not compiled in. Requires crc32_kernel_runtime_ok(k) before
/// calling through the result.
const Crc32KernelOps& crc32_kernel_ops(Crc32Kernel k);

/// The tier crc32() uses: the best runtime-supported one, fixed at first use.
Crc32Kernel crc32_active_kernel();

/// CRC-32 of `data`, optionally continuing from a previous value
/// (pass the previous return value as `seed` to chain).
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

}  // namespace prlc
