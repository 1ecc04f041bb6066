// Growth Codes (Kamra, Feldman, Misra, Rubenstein — SIGCOMM 2006).
//
// The related-work baseline the paper argues against in Sec. 6: Growth
// Codes maximize the number of *any* source blocks recovered as symbols
// trickle in, treating all data as equally important. A symbol XORs `d`
// distinct source blocks; the degree grows with the sink's recovery
// progress so each new symbol is immediately decodable with good
// probability: with r of N blocks recovered, a degree-d symbol decodes a
// new block iff exactly one of its d blocks is still unknown, which is
// maximized at d ~ N/(N - r) — the schedule used here (the continuous
// relaxation of the paper's R_i switch points).
//
// The encoder is index-only, as the Sec.-6 comparison needs: a symbol
// names the blocks it XORs, and the caller feeds it the sink's true
// recovery count (the oracle-feedback upper bound; in-network Growth
// Codes approximate it by symbol age).
//
// The bench (abl_baselines) reproduces the paper's qualitative claim:
// Growth Codes recover more *total* blocks early, but spread recovery
// uniformly across priorities, so the critical prefix completes later
// than under PLC.
#pragma once

#include <vector>

#include "util/random.h"

namespace prlc::codes {

/// One Growth-Codes symbol: XOR of the listed source blocks.
struct GrowthSymbol {
  std::vector<std::size_t> indices;
};

class GrowthEncoder {
 public:
  explicit GrowthEncoder(std::size_t total_blocks);

  /// Degree the schedule picks when `recovered` blocks are known.
  std::size_t degree_for(std::size_t recovered) const;

  /// Emit one symbol given the sink's recovery count.
  GrowthSymbol encode(std::size_t recovered, Rng& rng) const;

 private:
  std::size_t total_blocks_;
};

}  // namespace prlc::codes
