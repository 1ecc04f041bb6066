// Source-block payload storage.
//
// The measured data of Sec. 2: N source blocks of `block_size` field
// symbols each. Encoders read payloads from here; tests compare decoder
// output against it. Every block starts on a 64-byte cache line (blocks
// are padded to a whole number of lines), so no vector load of a kernel
// walking a block splits a line.
#pragma once

#include <span>

#include "gf/aligned_buffer.h"
#include "gf/field_concept.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::codes {

template <gf::FieldPolicy F>
class SourceData {
 public:
  using Symbol = typename F::Symbol;

  /// `blocks` payloads of `block_size` symbols each, zero-initialized.
  SourceData(std::size_t blocks, std::size_t block_size)
      : blocks_(blocks),
        block_size_(block_size),
        stride_((block_size + kLineSymbols - 1) / kLineSymbols * kLineSymbols),
        data_(blocks * stride_, Symbol{0}) {
    PRLC_REQUIRE(blocks > 0, "need at least one source block");
  }

  /// Random payloads — the usual test/benchmark workload.
  static SourceData random(std::size_t blocks, std::size_t block_size, Rng& rng) {
    SourceData d(blocks, block_size);
    for (std::size_t i = 0; i < blocks; ++i) {
      for (auto& v : d.block(i)) v = static_cast<Symbol>(rng.uniform(F::order()));
    }
    return d;
  }

  std::size_t blocks() const { return blocks_; }
  std::size_t block_size() const { return block_size_; }

  std::span<const Symbol> block(std::size_t i) const {
    PRLC_REQUIRE(i < blocks_, "source block index out of range");
    return {data_.data() + i * stride_, block_size_};
  }

  std::span<Symbol> block(std::size_t i) {
    PRLC_REQUIRE(i < blocks_, "source block index out of range");
    return {data_.data() + i * stride_, block_size_};
  }

 private:
  static constexpr std::size_t kLineSymbols = gf::kCacheLineBytes / sizeof(Symbol);

  std::size_t blocks_;
  std::size_t block_size_;
  std::size_t stride_;  ///< symbols from one block's start to the next
  gf::AlignedVector<Symbol> data_;
};

}  // namespace prlc::codes
