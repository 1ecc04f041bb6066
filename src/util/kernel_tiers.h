// Run-time tier dispatch for the byte-kernel families: the GF(2^8) span
// ops (gf/gf256_kernels.h), CRC-32 (util/crc32.h) and the GF(2^64)
// fingerprints (util/gf64_fingerprint.h).
//
// A family lists its tiers in one constexpr table, indexed by its tier
// enum in ascending preference: portable tiers first, vector tiers last.
// Each entry holds the tier's ops and its CPU check, null for portable
// code. A build without the vector tiers has a shorter table, so an enum
// value past its end reads as "not compiled". The one rule: the active
// tier is the last one whose CPU check passes. Tier 0 must be portable,
// so some tier always runs. Each family fixes its active tier once, at
// first use, and calls through its ops from then on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/check.h"

namespace prlc {

/// One row of a family's table.
template <typename Ops>
struct KernelTier {
  Ops ops;
  bool (*cpu_ok)() = nullptr;  ///< null: portable, runs on every CPU
};

/// A family's tiers, indexed by its enum `Kernel` (0, 1, ...).
template <typename Kernel, typename Ops>
class KernelTable {
 public:
  constexpr explicit KernelTable(std::span<const KernelTier<Ops>> tiers) : tiers_(tiers) {}

  /// Every tier compiled into this binary, in ascending preference order.
  std::vector<Kernel> compiled() const {
    std::vector<Kernel> out;
    for (std::size_t i = 0; i < tiers_.size(); ++i) out.push_back(static_cast<Kernel>(i));
    return out;
  }

  /// True when tier `k` is compiled in AND the running CPU can execute it.
  bool runtime_ok(Kernel k) const {
    const auto i = static_cast<std::size_t>(k);
    return i < tiers_.size() && (tiers_[i].cpu_ok == nullptr || tiers_[i].cpu_ok());
  }

  /// Ops of tier `k`; throws PreconditionError when it is not compiled in.
  const Ops& ops(Kernel k) const {
    const auto i = static_cast<std::size_t>(k);
    PRLC_REQUIRE(i < tiers_.size(), "kernel tier not compiled in");
    return tiers_[i].ops;
  }

  /// The last tier whose CPU check passes (tier 0 when no other does).
  Kernel best() const {
    PRLC_ASSERT(!tiers_.empty() && tiers_[0].cpu_ok == nullptr,
                "a kernel table starts with a portable tier");
    std::size_t i = tiers_.size() - 1;
    while (i > 0 && !runtime_ok(static_cast<Kernel>(i))) --i;
    return static_cast<Kernel>(i);
  }

 private:
  std::span<const KernelTier<Ops>> tiers_;
};

}  // namespace prlc
