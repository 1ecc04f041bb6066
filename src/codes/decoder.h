// Scheme-aware priority decoder with partial recovery (Sec. 3.2).
//
// Every scheme feeds one progressive Gauss-Jordan decoder over all N
// unknowns, as in the paper: an SLC system is only the block-diagonal case
// of the same elimination. Each block enters through its support window
// (PrioritySpec::support), so its elimination costs O(a_k) for an SLC row
// and O(b_k) for a PLC row; checking that a dense block's coefficients stay
// inside the window still reads all N of them, and a block that leaves it
// is rejected.
// The decoded *prefix* of source blocks determines how many whole
// priority levels are recovered (the strict priority model).
#pragma once

#include <algorithm>
#include <span>

#include "codes/coded_block.h"
#include "codes/priority_spec.h"
#include "codes/scheme.h"
#include "gf/field_concept.h"
#include "linalg/progressive_decoder.h"
#include "util/check.h"

namespace prlc::codes {

template <gf::FieldPolicy F>
class PriorityDecoder {
 public:
  using Symbol = typename F::Symbol;

  /// `payload_size` 0 = coefficient-only decoding.
  PriorityDecoder(Scheme scheme, PrioritySpec spec, std::size_t payload_size = 0)
      : scheme_(scheme), spec_(std::move(spec)), decoder_(spec_.total(), payload_size) {}

  const PrioritySpec& spec() const { return spec_; }
  Scheme scheme() const { return scheme_; }

  /// Feed one coded block; returns true when it was innovative.
  bool add(const CodedBlock<F>& block) {
    return add(block.level, block.coeffs, block.payload);
  }

  /// Span-based twin of add(): feeds coefficient/payload views without
  /// materializing an owning CodedBlock (the zero-copy wire path — the
  /// decoder copies into its own work buffers, so the views only need to
  /// live for the call).
  bool add(std::size_t level, std::span<const Symbol> coeffs,
           std::span<const Symbol> payload) {
    PRLC_REQUIRE(coeffs.size() == spec_.total(), "coded block width mismatch");
    PRLC_REQUIRE(payload.size() == decoder_.payload_size(), "coded block payload mismatch");
    PRLC_REQUIRE(spec_.admits(scheme_, level, coeffs),
                 "coded block level out of range or support outside its level");
    const auto [begin, end] = spec_.support(scheme_, level);
    return decoder_.add_window(begin, coeffs.subspan(begin, end - begin), payload);
  }

  /// Total rank accumulated.
  std::size_t rank() const { return decoder_.rank(); }

  /// Whether every source block of level i is recovered, whatever the
  /// state of the levels before it (SLC can decode a later level while an
  /// earlier one is still missing).
  bool is_level_decoded(std::size_t i) const {
    const std::size_t from = std::max(spec_.level_begin(i), decoder_.decoded_prefix());
    for (std::size_t j = from; j < spec_.level_end(i); ++j) {
      if (!decoder_.is_decoded(j)) return false;
    }
    return true;
  }

  /// X in the paper's analysis: the number of *leading* priority levels
  /// recovered (strict priority model).
  std::size_t decoded_levels() const {
    return spec_.levels_covered_by_prefix(decoder_.decoded_prefix());
  }

  /// Number of source blocks recovered in priority order: the raw decoded
  /// prefix, which SLC rounds down to whole levels (b_k for its decoded
  /// level prefix).
  std::size_t decoded_prefix_blocks() const {
    if (scheme_ != Scheme::kSlc) return decoder_.decoded_prefix();
    const std::size_t k = decoded_levels();
    return k == 0 ? 0 : spec_.prefix_size(k - 1);
  }

  /// Whether an individual source block is recovered (not restricted to
  /// the priority prefix).
  bool is_block_decoded(std::size_t j) const { return decoder_.is_decoded(j); }

  /// Recovered payload of a decoded source block.
  std::span<const Symbol> recovered(std::size_t j) const { return decoder_.solution(j); }

 private:
  Scheme scheme_;
  PrioritySpec spec_;
  linalg::ProgressiveDecoder<F> decoder_;
};

}  // namespace prlc::codes
