// A coded block: one linear combination of source blocks (Sec. 3.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf/field_concept.h"

namespace prlc::codes {

/// Self-describing coded block. `coeffs` always spans all N source blocks
/// (entries outside the scheme's support are zero); `payload` is the coded
/// data itself and is empty in coefficient-only simulations, where only
/// decodability is measured.
template <gf::FieldPolicy F>
struct CodedBlock {
  using Symbol = typename F::Symbol;

  std::size_t level = 0;         ///< 0-indexed priority level of this block
  std::vector<Symbol> coeffs;    ///< beta_{i,1..N} in the paper's notation
  std::vector<Symbol> payload;   ///< c_i = sum_j beta_{i,j} x_j
};

/// Sparse coded block: the same equation as CodedBlock, stored as sorted
/// (index, value) pairs over the nonzero support only. This is the native
/// currency of the O(ln N)-sparse encoders, and ProgressiveDecoder::
/// add_sparse takes it as is — at N = 10^5 a dense coefficient vector would
/// dwarf the payload it describes, and a run that generates its blocks
/// before decoding them only fits in memory this way.
/// PriorityEncoder::encode_sparse() emits blocks whose expansion is
/// bit-identical to encode()'s dense output.
template <gf::FieldPolicy F>
struct SparseCodedBlock {
  using Symbol = typename F::Symbol;

  std::size_t level = 0;               ///< 0-indexed priority level
  std::vector<std::uint32_t> indices;  ///< strictly increasing support columns
  std::vector<Symbol> values;          ///< nonzero coefficients matching indices
  std::vector<Symbol> payload;         ///< c_i = sum_k values[k] x_{indices[k]}
};

}  // namespace prlc::codes
