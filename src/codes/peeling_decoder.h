// Iterative peeling decoder for sparse codes (Growth Codes, LT-style).
//
// Growth Codes (Kamra et al., SIGCOMM 2006 — the related work the paper
// contrasts against in Sec. 6) XOR small sets of source blocks. Decoding
// peels: any symbol whose unknowns reduce to one decodes that unknown,
// which may unlock buffered symbols, cascading. Unlike Gauss-Jordan this
// never solves coupled systems — degree-2 symbols over undecoded blocks
// just wait — which is exactly the behaviour the Growth-Codes degree
// schedule is designed around.
//
// The decoder is index-only: Sec. 6 compares codes by *which* source
// blocks a collector recovers, so a symbol is the set of blocks it XORs
// and no payload is carried. In linalg::ProgressiveDecoder, eliminating
// against a decoded unknown (a one-column row window) is the same peeling
// step over GF(2^q), with payloads.
//
// Memory discipline: a retired symbol's storage is released immediately,
// so resident memory is bounded by the *live* symbol set, not by
// everything ever received (buffered_symbols() counts it).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/check.h"

namespace prlc::codes {

class PeelingDecoder {
 public:
  explicit PeelingDecoder(std::size_t unknowns);

  /// Add an XOR symbol: the XOR of the source blocks listed in `indices`
  /// (distinct, in range — duplicates are rejected even when the
  /// duplicated block is already decoded). Returns the number of source
  /// blocks newly decoded by the resulting cascade (0 if none).
  std::size_t add(std::span<const std::size_t> indices);

  std::size_t decoded_count() const { return decoded_count_; }
  bool is_decoded(std::size_t i) const {
    PRLC_REQUIRE(i < decoded_.size(), "unknown index out of range");
    return decoded_[i];
  }

  /// Symbols currently buffered undecoded (memory the sink holds).
  std::size_t buffered_symbols() const { return buffered_; }

 private:
  struct Symbol {
    std::vector<std::size_t> pending;  ///< still-undecoded indices
    bool retired = false;
  };

  /// Release a retired symbol's storage (bounded-memory discipline).
  void retire(Symbol& sym);

  /// Mark unknown `i` decoded; cascade through waiters.
  void resolve(std::size_t i, std::size_t& newly);

  std::vector<bool> decoded_;
  std::vector<Symbol> symbols_;
  std::vector<std::vector<std::size_t>> waiters_;  ///< unknown -> symbol ids
  std::vector<std::size_t> scratch_;               ///< add-time dup check
  std::size_t decoded_count_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace prlc::codes
