// Payload-level codec: priority-RLC encode and survivor recombination over
// payload bytes.
//
// The coefficient-level machinery (PriorityEncoder, PriorityDecoder)
// answers *which* linear combinations exist and *whether* they decode;
// this front-end builds the coded payloads of multi-MB objects at kernel
// speed. Both operations are rows of one product, gf::gf256_combine_batch,
// the tile-major product the in-network store (proto::Predistribution)
// uses too:
//
//   * encode computes the coded payloads C*S of the coefficient rows with
//     the source blocks; a pool splits the rows into one part per thread,
//     so the bytes do not depend on the thread count;
//   * recombine (repair) builds one new coded block from survivors without
//     reconstructing source data, the functional repair of Dimakis et al.
//     ("Network Coding for Distributed Storage Systems").
//
// Decoding payloads is codes::PriorityDecoder's job: the one payload
// decoder, online Gauss-Jordan over coefficient and payload rows
// (Sec. 3.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/coded_block.h"
#include "codes/priority_spec.h"
#include "codes/source_data.h"
#include "gf/gf256.h"
#include "runtime/thread_pool.h"

namespace prlc::codec {

class PayloadCodec {
 public:
  using F = gf::Gf256;

  /// `pool` splits encode's rows across its threads; nullptr = serial.
  /// The pool must outlive the codec.
  explicit PayloadCodec(codes::PrioritySpec spec, runtime::ThreadPool* pool = nullptr);

  /// The coded payloads out[b] = sum_j rows[b][j] * source_j, in row order.
  /// Every row must be spec.total() wide.
  std::vector<std::vector<std::uint8_t>> encode(
      std::span<const std::vector<std::uint8_t>> coeff_rows,
      const codes::SourceData<F>& source) const;

  /// New coded block from K survivors: coeffs = sum_i gamma[i]*rows[i],
  /// payload = sum_i gamma[i]*payloads[i]; `level` is assigned verbatim.
  /// Linearity makes the result distributed exactly like a fresh coded
  /// block re-encoded from source — without touching source data.
  codes::CodedBlock<F> recombine(std::span<const std::vector<std::uint8_t>> coeff_rows,
                                 std::span<const std::span<const std::uint8_t>> payloads,
                                 std::span<const std::uint8_t> gamma,
                                 std::size_t level) const;

 private:
  codes::PrioritySpec spec_;
  runtime::ThreadPool* pool_;
};

}  // namespace prlc::codec
