// Centralized encoders for RLC, SLC and PLC (Sec. 3.1).
//
// "Centralized" means the encoder sees all source payloads at once — the
// model used by the paper's coding analysis and simulations. The
// decentralized variant, where coded blocks accumulate c <- c + beta*x as
// source blocks arrive over the network, lives in src/proto; both produce
// identically distributed coded blocks.
//
// Support sets per scheme for a block of (0-indexed) level k:
//   RLC: all N source blocks            SLC: [b_{k-1}, b_k)
//   PLC: [0, b_k)
// Coefficients within the support are drawn per a CoefficientModel:
//   kDenseUniform  — uniform over the field (zeros allowed; all-zero rows
//                    are redrawn). The standard RLNC model.
//   kSparse        — ceil(factor * ln(support)) random positions get
//                    nonzero coefficients; the rest are zero. Models the
//                    O(ln N) pre-distribution result of Dimakis et al.
//                    cited in Sec. 4.
#pragma once

#include <algorithm>
#include <utility>

#include "codes/coded_block.h"
#include "codes/priority_spec.h"
#include "codes/scheme.h"
#include "codes/source_data.h"
#include "gf/field_concept.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::codes {

enum class CoefficientModel { kDenseUniform, kSparse };

struct EncoderOptions {
  CoefficientModel model = CoefficientModel::kDenseUniform;
  /// Nonzeros per block = ceil(sparsity_factor * ln(support size)) under
  /// kSparse (clamped to [1, support size]).
  double sparsity_factor = 3.0;
  /// When nonzero, each block's support is further restricted to one
  /// randomly chosen chunk_size-aligned slice of the scheme support.
  /// Chunking keeps every decoder row window inside its block's chunk —
  /// the structured sparsity of "Expander Chunked Codes" (PAPERS.md) that
  /// keeps decoding near-linear at N = 10^5 (bench/abl_sparsity). 0
  /// disables.
  std::size_t chunk_size = 0;
};

template <gf::FieldPolicy F>
class PriorityEncoder {
 public:
  using Symbol = typename F::Symbol;

  /// `source` may be null for coefficient-only encoding (decoding-curve
  /// simulations); when non-null it must outlive the encoder and have
  /// spec.total() blocks.
  PriorityEncoder(Scheme scheme, PrioritySpec spec, EncoderOptions options = {},
                  const SourceData<F>* source = nullptr)
      : scheme_(scheme), spec_(std::move(spec)), options_(options), source_(source) {
    if (source_ != nullptr) {
      PRLC_REQUIRE(source_->blocks() == spec_.total(),
                   "source data size must match the priority spec");
    }
    PRLC_REQUIRE(options_.sparsity_factor > 0, "sparsity factor must be positive");
  }

  const PrioritySpec& spec() const { return spec_; }
  Scheme scheme() const { return scheme_; }

  /// Produce one coded block of the given level.
  CodedBlock<F> encode(std::size_t level, Rng& rng) const {
    const auto [begin, end] = spec_.support(scheme_, level);
    static obs::Counter& blocks_encoded = obs::counter("encoder.blocks_encoded");
    blocks_encoded.add();
    CodedBlock<F> block;
    block.level = level;
    block.coeffs.assign(spec_.total(), Symbol{0});
    std::vector<std::uint32_t> idx;
    std::vector<Symbol> val;
    draw_support(begin, end, rng, idx, val);
    for (std::size_t k = 0; k < idx.size(); ++k) block.coeffs[idx[k]] = val[k];
    if (source_ != nullptr) {
      block.payload.assign(source_->block_size(), Symbol{0});
      for (std::size_t k = 0; k < idx.size(); ++k) {
        F::axpy(std::span<Symbol>(block.payload), val[k], source_->block(idx[k]));
      }
    }
    return block;
  }

  /// Produce one coded block of the given level in sparse form. Consumes
  /// the RNG exactly as encode() does, so from the same seed the dense and
  /// sparse emitters produce the same equation stream: expanding the
  /// returned (indices, values) pairs reproduces encode()'s coefficient
  /// vector and payload bit for bit.
  SparseCodedBlock<F> encode_sparse(std::size_t level, Rng& rng) const {
    const auto [begin, end] = spec_.support(scheme_, level);
    static obs::Counter& blocks_encoded = obs::counter("encoder.blocks_encoded");
    blocks_encoded.add();
    SparseCodedBlock<F> block;
    block.level = level;
    draw_support(begin, end, rng, block.indices, block.values);
    sort_support(block.indices, block.values);
    if (source_ != nullptr) {
      block.payload.assign(source_->block_size(), Symbol{0});
      for (std::size_t k = 0; k < block.indices.size(); ++k) {
        F::axpy(std::span<Symbol>(block.payload), block.values[k],
                source_->block(block.indices[k]));
      }
    }
    return block;
  }

  /// Sample the block's level from `dist`, then encode.
  CodedBlock<F> encode_random(const PriorityDistribution& dist, Rng& rng) const {
    PRLC_REQUIRE(dist.levels() == spec_.levels(),
                 "priority distribution and spec disagree on level count");
    return encode(dist.sample_level(rng), rng);
  }

  /// Sample the block's level from `dist`, then encode in sparse form.
  SparseCodedBlock<F> encode_sparse_random(const PriorityDistribution& dist, Rng& rng) const {
    PRLC_REQUIRE(dist.levels() == spec_.levels(),
                 "priority distribution and spec disagree on level count");
    return encode_sparse(dist.sample_level(rng), rng);
  }

 private:
  /// Draw one block's nonzero support as (index, value) pairs, in *draw
  /// order* (kSparse pairs come out in sample order — sort_support makes
  /// them canonical). This is the single source of randomness for both
  /// emitters; any change here must keep the RNG consumption of the dense
  /// and sparse paths identical.
  void draw_support(std::size_t begin, std::size_t end, Rng& rng,
                    std::vector<std::uint32_t>& idx, std::vector<Symbol>& val) const {
    idx.clear();
    val.clear();
    // Chunked sparsity: restrict the block to one chunk_size-aligned slice
    // of the scheme support (see EncoderOptions.chunk_size).
    if (options_.chunk_size > 0 && end - begin > options_.chunk_size) {
      const std::size_t chunks = (end - begin + options_.chunk_size - 1) / options_.chunk_size;
      begin += rng.uniform(chunks) * options_.chunk_size;
      end = std::min(end, begin + options_.chunk_size);
    }
    const std::size_t width = end - begin;
    PRLC_ASSERT(width > 0, "empty coding support");
    static obs::Counter& symbols_drawn = obs::counter("encoder.symbols_drawn");
    static obs::Counter& redraws = obs::counter("encoder.redraws");
    switch (options_.model) {
      case CoefficientModel::kDenseUniform: {
        bool first_draw = true;
        do {
          if (!first_draw) redraws.add();
          first_draw = false;
          symbols_drawn.add(width);
          // Reset the pairs before each (re)draw: a rejected all-zero
          // attempt must not leak stale entries.
          idx.clear();
          val.clear();
          for (std::size_t j = begin; j < end; ++j) {
            const auto c = static_cast<Symbol>(rng.uniform(F::order()));
            if (c != 0) {
              idx.push_back(static_cast<std::uint32_t>(j));
              val.push_back(c);
            }
          }
        } while (idx.empty());
        PRLC_ASSERT(!idx.empty(), "dense-uniform draw produced an all-zero row");
        return;
      }
      case CoefficientModel::kSparse: {
        const std::size_t nnz = sparse_row_weight(options_.sparsity_factor, width);
        symbols_drawn.add(nnz);
        idx.reserve(nnz);
        val.reserve(nnz);
        for (std::size_t offset : rng.sample_without_replacement(width, nnz)) {
          idx.push_back(static_cast<std::uint32_t>(begin + offset));
          val.push_back(static_cast<Symbol>(1 + rng.uniform(F::order() - 1)));
        }
        return;
      }
    }
    PRLC_ASSERT(false, "unknown coefficient model");
  }

  /// Put (index, value) pairs into strictly increasing index order.
  static void sort_support(std::vector<std::uint32_t>& idx, std::vector<Symbol>& val) {
    if (std::is_sorted(idx.begin(), idx.end())) return;
    std::vector<std::size_t> perm(idx.size());
    for (std::size_t k = 0; k < perm.size(); ++k) perm[k] = k;
    std::sort(perm.begin(), perm.end(),
              [&](std::size_t a, std::size_t b) { return idx[a] < idx[b]; });
    std::vector<std::uint32_t> sorted_idx(idx.size());
    std::vector<Symbol> sorted_val(val.size());
    for (std::size_t k = 0; k < perm.size(); ++k) {
      sorted_idx[k] = idx[perm[k]];
      sorted_val[k] = val[perm[k]];
    }
    idx.swap(sorted_idx);
    val.swap(sorted_val);
  }

  Scheme scheme_;
  PrioritySpec spec_;
  EncoderOptions options_;
  const SourceData<F>* source_;
};

}  // namespace prlc::codes
