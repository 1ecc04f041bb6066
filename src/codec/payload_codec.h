// Payload-level codec: priority-RLC encode, progressive decode and
// survivor recombination over payload bytes.
//
// The coefficient-level machinery (PriorityEncoder, ProgressiveDecoder)
// answers *which* linear combinations exist and *whether* they decode;
// this front-end moves the actual multi-MB payloads at hardware speed,
// serially (the reference path) or across the work-stealing ThreadPool,
// byte-identical either way.
//
// Encode: the coded payloads are the product C*S of the coefficient rows
// with the source blocks, computed by gf::gf256_combine_batch, the
// tile-major product the in-network store (proto::Predistribution) uses
// too; a pool splits the rows into one part per thread.
//
// Decode and recombination share one shape:
//
//   1. a cheap coefficient phase on one thread (decode runs a
//      coefficient-only ProgressiveDecoder with a schedule recorder — see
//      linalg/elimination_schedule.h);
//   2. an OpGraph over the payload rows, split into cache-tile-sized
//      chunks (CodecOptions::chunk_bytes, default the gf256 batch tile);
//   3. graph execution, serial or pooled.
//
// Decode replays the recorded elimination schedule over the arriving
// payload buffers in place (no copies; the buffers that end up holding
// pivot rows *are* the decoded payloads). Recombination (repair) builds
// one combination chain over survivor payloads without ever
// reconstructing source data — the Dimakis-style "new coded block from
// coded blocks" primitive.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/coded_block.h"
#include "codes/priority_spec.h"
#include "codes/scheme.h"
#include "codes/source_data.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "runtime/thread_pool.h"

namespace prlc::codec {

struct CodecOptions {
  /// Tile size of the decode and recombination graph nodes (positive);
  /// defaults to the gf256 batch tile, which encode always walks.
  std::size_t chunk_bytes = gf::kGf256TileBytes;
  /// Execution substrate; nullptr = serial reference path. The pool must
  /// outlive the codec.
  runtime::ThreadPool* pool = nullptr;
};

/// One recovered unknown: where its payload lives after decode().
struct DecodedPayload {
  bool decoded = false;
  /// View into the caller's payload buffer that holds the recovered
  /// payload (the buffer of the input equation bound to this pivot).
  std::span<const std::uint8_t> payload;
};

struct PayloadDecodeResult {
  std::size_t rank = 0;
  std::size_t decoded_prefix = 0;  ///< leading source blocks recovered
  std::size_t decoded_levels = 0;  ///< leading whole priority levels
  std::vector<DecodedPayload> blocks;  ///< per source block, size N
};

class PayloadCodec {
 public:
  using F = gf::Gf256;

  PayloadCodec(codes::Scheme scheme, codes::PrioritySpec spec, CodecOptions options = {});

  const codes::PrioritySpec& spec() const { return spec_; }
  codes::Scheme scheme() const { return scheme_; }
  std::size_t chunk_bytes() const { return chunk_bytes_; }

  /// --- encode -----------------------------------------------------------
  /// The coded payloads out[b] = sum_j rows[b][j] * source_j, in row order.
  /// Every row must be spec().total() wide.
  std::vector<std::vector<std::uint8_t>> encode(
      std::span<const std::vector<std::uint8_t>> coeff_rows,
      const codes::SourceData<F>& source) const;

  /// --- progressive decode ----------------------------------------------
  /// Decode from coefficient rows plus matching payload buffers. The
  /// payload buffers are consumed: elimination happens *in* them, and the
  /// result's views point back into them. All payloads must share one
  /// size; rows[i] must be spec().total() wide.
  PayloadDecodeResult decode(std::span<const std::vector<std::uint8_t>> coeff_rows,
                             std::span<std::vector<std::uint8_t>> payloads) const;

  /// --- survivor recombination (repair) ---------------------------------
  /// New coded block from K survivors: coeffs = sum_i gamma[i]*rows[i],
  /// payload = sum_i gamma[i]*payloads[i]; `level` is assigned verbatim.
  /// Linearity makes the result distributed exactly like a fresh coded
  /// block re-encoded from source — without touching source data.
  codes::CodedBlock<F> recombine(std::span<const std::vector<std::uint8_t>> coeff_rows,
                                 std::span<const std::span<const std::uint8_t>> payloads,
                                 std::span<const std::uint8_t> gamma,
                                 std::size_t level) const;

 private:
  codes::Scheme scheme_;
  codes::PrioritySpec spec_;
  std::size_t chunk_bytes_;
  runtime::ThreadPool* pool_;
};

}  // namespace prlc::codec
