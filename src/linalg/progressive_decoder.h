// Online Gauss-Jordan elimination with payload rows — the partial-decoding
// engine of Sec. 3.2 — extended with a hybrid peeling/GE sparse path.
//
// Coded blocks arrive one at a time at the data-collecting server. Each
// block contributes one linear equation (coefficients over the source
// blocks, plus the coded payload). The decoder maintains the reduced
// row-echelon form incrementally, so after *every* insertion it can report
// which unknowns are already solved — in particular the longest solved
// prefix, which under the strict priority model is what the application
// cares about. The RREF of a matrix is unique for a given row space, so
// this online variant solves exactly what batch Gauss-Jordan would.
//
// It is the repo's one payload decoder: the collector, the CLI, the
// examples and perf_codec's payload sweep all decode through it (via
// codes::PriorityDecoder), and its per-arrival cost is the `decode_add`
// layer of the pipeline ledger.
//
// Hybrid storage (the N >= 10^5 path). The paper leans on O(ln N)-sparse
// coefficients (Dimakis et al., "Decentralized Erasure Codes"), and dense
// full-width rows cap experiments near N = 1000: storing N rows of N
// symbols is O(N^2) memory and every insertion scans all pivot rows.
// This decoder therefore keeps two row representations behind one RREF
// invariant:
//
//   * sparse rows — sorted (column, value) pairs, indexed by a
//     column -> rows map (`cols_`) so eliminations only touch rows that
//     actually intersect the new pivot column. Eliminating against a
//     *singleton* row (one nonzero == a decoded unknown) is the GF(2^q)
//     generalization of XOR peeling: subtract value * solution, O(1) per
//     reference (see codes/peeling_decoder.{h,cpp} for the standalone
//     XOR/GF(256) peeling decoder this path subsumes).
//   * dense rows — a contiguous coefficient window [pivot, end), used
//     once a row's fill-in passes the density threshold (see
//     `should_store_dense`). Dense rows are found through a coarse
//     block-granular cover index (`dense_cover_`) and are updated with
//     the batched SIMD axpy path (PR 2 kernels) during back-elimination
//     — the "dense residual" of the hybrid: only rows peeling could not
//     keep sparse pay the SIMD-row cost.
//
// Both representations run the same elimination order over exact field
// arithmetic, so results (rank, innovation verdicts, decoded set, and
// recovered payload bytes) are identical to the legacy dense decoder —
// the differential fuzz suite in tests/linalg asserts this byte for byte.
//
// Complexity: an equation that peels costs O(nnz); an innovative sparse
// row costs O(fill-in); only densified rows pay O(window) SIMD work.
// Priority codes keep windows small for high-priority rows (add_window
// takes a block's support: the level prefix for PLC, the level for SLC),
// and chunked sparsity (see EncoderOptions.chunk_size) bounds fill-in by
// the chunk width: decoding curves at N = 10^5 (bench/abl_sparsity).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "gf/aligned_buffer.h"
#include "gf/field_concept.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace prlc::linalg {

template <gf::FieldPolicy F>
class ProgressiveDecoder {
 public:
  using Symbol = typename F::Symbol;

  /// A decoder for `unknowns` source blocks whose payloads are
  /// `payload_size` symbols each (0 = coefficient-only decoding, used by
  /// decoding-curve simulations where only *which* blocks decode matters).
  explicit ProgressiveDecoder(std::size_t unknowns, std::size_t payload_size = 0)
      : unknowns_(unknowns),
        payload_size_(payload_size),
        by_pivot_(unknowns),
        cols_(unknowns),
        dense_cover_((unknowns + kCoverBlock - 1) / kCoverBlock),
        work_coef_(unknowns, Symbol{0}),
        is_touched_(unknowns, 0) {
    PRLC_REQUIRE(unknowns > 0, "decoder needs at least one unknown");
    PRLC_REQUIRE(unknowns <= 0xffffffffu, "decoder caps unknowns at 2^32-1");
  }

  std::size_t unknowns() const { return unknowns_; }
  std::size_t payload_size() const { return payload_size_; }
  std::size_t rank() const { return rank_; }

  /// Number of equations offered via add(), innovative or not.
  std::size_t equations_seen() const { return seen_; }

  /// Insert one equation from a full-width coefficient vector. `coeffs`
  /// must have length unknowns(); `payload` must have length
  /// payload_size(). Returns true when the equation was innovative
  /// (increased the rank).
  bool add(std::span<const Symbol> coeffs, std::span<const Symbol> payload = {}) {
    PRLC_REQUIRE(coeffs.size() == unknowns_, "coefficient vector width mismatch");
    return add_window(0, coeffs, payload);
  }

  /// add() for an equation that is zero outside the support window
  /// [first, first + window.size()), given by the coefficients inside it:
  /// O(window) instead of O(unknowns). Sparse content (few nonzeros for
  /// the window) takes the peeling/sparse path, so dense callers — the
  /// wire/collector path — still benefit from sparsity.
  bool add_window(std::size_t first, std::span<const Symbol> window,
                  std::span<const Symbol> payload = {}) {
    PRLC_REQUIRE(first + window.size() <= unknowns_, "coefficient window out of range");
    // Route through the sparse path when the row is sparse enough that
    // gathering pays for itself; the two paths are exactly equivalent.
    std::size_t nnz = 0;
    for (const Symbol c : window) nnz += c != 0 ? 1 : 0;
    if (nnz * kDensityDivisor <= window.size()) {
      in_idx_.clear();
      in_val_.clear();
      in_idx_.reserve(nnz);
      in_val_.reserve(nnz);
      for (std::size_t j = 0; j < window.size(); ++j) {
        if (window[j] != 0) {
          in_idx_.push_back(static_cast<std::uint32_t>(first + j));
          in_val_.push_back(window[j]);
        }
      }
      return add_gathered(in_idx_, in_val_, payload);
    }
    return add_dense_scan(first, window, payload);
  }

  /// Insert one equation given in sparse form: strictly increasing
  /// in-range `indices` with matching nonzero `values`. Exactly
  /// equivalent to add() on the expanded row; cost O(nnz + fill-in)
  /// instead of O(unknowns).
  bool add_sparse(std::span<const std::uint32_t> indices, std::span<const Symbol> values,
                  std::span<const Symbol> payload = {}) {
    PRLC_REQUIRE(indices.size() == values.size(),
                 "sparse row index/value length mismatch");
    for (std::size_t k = 0; k < indices.size(); ++k) {
      PRLC_REQUIRE(indices[k] < unknowns_, "sparse row index out of range");
      PRLC_REQUIRE(k == 0 || indices[k - 1] < indices[k],
                   "sparse row indices must be strictly increasing");
      PRLC_REQUIRE(values[k] != 0, "sparse row stores nonzero values only");
    }
    return add_gathered(indices, values, payload);
  }

  /// True when unknown `i` is fully determined (e_i lies in the row space).
  /// Monotone in added equations.
  bool is_decoded(std::size_t i) const {
    PRLC_REQUIRE(i < unknowns_, "unknown index out of range");
    const Row* r = by_pivot_[i].get();
    return r != nullptr && is_singleton(*r);
  }

  /// Largest k such that unknowns 0..k-1 are all decoded — the paper's
  /// partially-decoded prefix under the strict priority model.
  std::size_t decoded_prefix() const { return decoded_prefix_; }

  /// Total number of decoded unknowns (not necessarily a prefix).
  std::size_t decoded_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < unknowns_; ++i) {
      if (by_pivot_[i] != nullptr && is_singleton(*by_pivot_[i])) ++n;
    }
    return n;
  }

  /// Recovered payload of a decoded unknown. Requires is_decoded(i) and a
  /// nonzero payload_size.
  std::span<const Symbol> solution(std::size_t i) const {
    PRLC_REQUIRE(payload_size_ > 0, "decoder was built without payloads");
    PRLC_REQUIRE(is_decoded(i), "unknown is not decoded yet");
    return by_pivot_[i]->payload;
  }

  /// True when a pivot row exists for column i.
  bool has_pivot(std::size_t i) const {
    PRLC_REQUIRE(i < unknowns_, "unknown index out of range");
    return by_pivot_[i] != nullptr;
  }

  /// Coefficient of pivot row `pivot` at column `col`. Inspection hook
  /// for invariant checks; requires has_pivot(pivot).
  Symbol row_coefficient(std::size_t pivot, std::size_t col) const {
    PRLC_REQUIRE(has_pivot(pivot), "no pivot row for this column");
    PRLC_REQUIRE(col < unknowns_, "column out of range");
    return row_coefficient_of(*by_pivot_[pivot], col);
  }

  /// Exclusive support bound of pivot row `pivot` — kept tight: the
  /// coefficient at end-1 is always nonzero (the satellite fix for the
  /// grow-only bound the dense decoder used to keep).
  std::size_t row_support_end(std::size_t pivot) const {
    PRLC_REQUIRE(has_pivot(pivot), "no pivot row for this column");
    return by_pivot_[pivot]->end;
  }

  /// Storage/behaviour statistics for benches and tests.
  struct Stats {
    std::size_t sparse_rows = 0;   ///< rows stored as (index, value) pairs
    std::size_t dense_rows = 0;    ///< rows stored as dense windows
    std::size_t coef_bytes = 0;    ///< resident coefficient bytes (both kinds)
    std::size_t peel_ops = 0;      ///< eliminations against singleton rows
    std::size_t densifications = 0;  ///< sparse rows converted to dense
  };
  Stats stats() const {
    Stats s;
    s.peel_ops = peel_ops_;
    s.densifications = densifications_;
    for (std::size_t i = 0; i < unknowns_; ++i) {
      const Row* r = by_pivot_[i].get();
      if (r == nullptr) continue;
      if (r->dense) {
        ++s.dense_rows;
        s.coef_bytes += r->coef.capacity() * sizeof(Symbol);
      } else {
        ++s.sparse_rows;
        s.coef_bytes += r->idx.capacity() * sizeof(std::uint32_t) +
                        r->val.capacity() * sizeof(Symbol);
      }
    }
    return s;
  }

 private:
  // Sparse storage costs ~(sizeof idx + sizeof val) per entry vs
  // sizeof(Symbol) per window slot, and scalar scatter ops instead of
  // SIMD; a row converts to a dense window once nnz exceeds 1/8 of its
  // support window (see should_store_dense).
  static constexpr std::size_t kDensityDivisor = 8;
  // Dense rows are indexed at this column granularity (dense_cover_).
  static constexpr std::size_t kCoverBlock = 256;

  struct Row {
    std::size_t pivot = 0;
    std::size_t end = 0;  ///< exclusive support bound, kept tight
    bool dense = false;
    std::vector<Symbol> coef;         ///< dense: window [pivot, end)
    std::vector<std::uint32_t> idx;   ///< sparse: sorted support columns
    std::vector<Symbol> val;          ///< sparse: values matching idx
    gf::AlignedVector<Symbol> payload;  ///< cache-line aligned for the kernels
    std::uint32_t cover_end_block = 0;  ///< dense_cover_ registration bound
  };

  static bool should_store_dense(std::size_t nnz, std::size_t window) {
    return nnz * kDensityDivisor >= window;
  }

  /// O(1) check for a decoded row (support bounds are kept tight, so a
  /// one-column window means exactly the unit pivot).
  static bool is_singleton(const Row& r) {
    return r.dense ? r.end == r.pivot + 1 : r.idx.size() == 1;
  }

  // ---- shared elimination machinery -------------------------------------

  /// work_payload_ -= factor * source payload.
  void payload_axpy(Symbol factor, const Row& source) {
    if (payload_size_ > 0) {
      F::axpy(std::span<Symbol>(work_payload_), factor,
              std::span<const Symbol>(source.payload));
    }
  }

  /// Dense-scan forward elimination: the legacy path for rows that are
  /// already dense. Scans columns left to right from the window's first.
  bool add_dense_scan(std::size_t first, std::span<const Symbol> window,
                      std::span<const Symbol> payload) {
    PRLC_REQUIRE(payload.size() == payload_size_, "payload width mismatch");
    ++seen_;
    static obs::Counter& rows_received = obs::counter("decoder.rows_received");
    static obs::Counter& rows_innovative = obs::counter("decoder.rows_innovative");
    static obs::Counter& rows_redundant = obs::counter("decoder.rows_redundant");
    rows_received.add();

    std::copy(window.begin(), window.end(), work_coef_.data() + first);
    work_payload_.assign(payload.begin(), payload.end());
    std::size_t end = first + window.size();
    while (end > first && work_coef_[end - 1] == 0) --end;

    static obs::Counter& pivot_ops = obs::counter("decoder.pivot_ops");
    std::size_t pivot = unknowns_;
    for (std::size_t j = first; j < end; ++j) {
      const Symbol v = work_coef_[j];
      if (v == 0) continue;
      const Row* existing = by_pivot_[j].get();
      if (existing == nullptr) {
        if (pivot == unknowns_) pivot = j;
        continue;
      }
      pivot_ops.add();
      if (is_singleton(*existing)) {
        ++peel_ops_;
        obs::emit(obs::EventType::kPeel, static_cast<double>(j));
      }
      eliminate_into_work(v, *existing);
      if (existing->end > end) end = existing->end;
      PRLC_ASSERT(work_coef_[j] == 0, "forward elimination left a nonzero pivot");
    }
    if (pivot == unknowns_) {
      // Restore the scratch row to all-zeros for the next call (forward
      // elimination fills only columns right of `first`).
      std::fill(work_coef_.data() + first, work_coef_.data() + end, Symbol{0});
      rows_redundant.add();
      return false;
    }
    while (end > pivot && work_coef_[end - 1] == 0) --end;
    normalize_work(pivot, end);
    store_and_back_eliminate(pivot, end, /*from_sparse=*/false);
    // store_and_back_eliminate consumed and re-zeroed the scratch window.
    rows_innovative.add();
    return true;
  }

  /// Sparse forward elimination: touches only the input's nonzero columns
  /// and the fill-in. The stored rows are in RREF, so each is zero at every
  /// other pivot column: eliminating one never changes the work row at
  /// another pivot column. The pivot columns to clear are therefore exactly
  /// the input's own, visited in increasing order like the dense scan, and
  /// fill-in lands on free columns only.
  bool add_gathered(std::span<const std::uint32_t> indices, std::span<const Symbol> values,
                    std::span<const Symbol> payload) {
    PRLC_REQUIRE(payload.size() == payload_size_, "payload width mismatch");
    ++seen_;
    static obs::Counter& rows_received = obs::counter("decoder.rows_received");
    static obs::Counter& rows_innovative = obs::counter("decoder.rows_innovative");
    static obs::Counter& rows_redundant = obs::counter("decoder.rows_redundant");
    rows_received.add();

    work_payload_.assign(payload.begin(), payload.end());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      work_coef_[indices[k]] = values[k];
      touch(indices[k]);
    }

    static obs::Counter& pivot_ops = obs::counter("decoder.pivot_ops");
    for (const std::uint32_t j : indices) {
      const Row* existing = by_pivot_[j].get();
      if (existing == nullptr) continue;
      pivot_ops.add();
      if (is_singleton(*existing)) {
        ++peel_ops_;
        obs::emit(obs::EventType::kPeel, static_cast<double>(j));
      }
      eliminate_into_work_tracked(work_coef_[j], *existing);
      PRLC_ASSERT(work_coef_[j] == 0, "forward elimination left a nonzero pivot");
    }
    // Only free columns can still be nonzero; the smallest is the pivot.
    std::size_t pivot = unknowns_;
    std::size_t end = 0;
    for (const std::uint32_t j : touched_) {
      if (work_coef_[j] == 0) continue;
      pivot = std::min<std::size_t>(pivot, j);
      end = std::max<std::size_t>(end, j + 1);
    }
    if (pivot == unknowns_) {
      clear_touched();
      rows_redundant.add();
      return false;
    }
    normalize_work_touched(pivot);
    store_and_back_eliminate(pivot, end, /*from_sparse=*/true);
    rows_innovative.add();
    return true;
  }

  /// Subtract factor * source from the work row (dense-scan variant: no
  /// fill-in tracking needed, the scan visits every column up to end).
  void eliminate_into_work(Symbol factor, const Row& source) {
    if (source.dense) {
      F::axpy(std::span<Symbol>(work_coef_).subspan(source.pivot, source.end - source.pivot),
              factor, std::span<const Symbol>(source.coef));
    } else {
      for (std::size_t k = 0; k < source.idx.size(); ++k) {
        work_coef_[source.idx[k]] ^= F::mul(factor, source.val[k]);
      }
    }
    payload_axpy(factor, source);
  }

  /// Same, but records every column the source may have filled in
  /// (sparse variant).
  void eliminate_into_work_tracked(Symbol factor, const Row& source) {
    if (source.dense) {
      F::axpy(std::span<Symbol>(work_coef_).subspan(source.pivot, source.end - source.pivot),
              factor, std::span<const Symbol>(source.coef));
      for (std::size_t j = source.pivot; j < source.end; ++j) {
        touch(static_cast<std::uint32_t>(j));
      }
    } else {
      for (std::size_t k = 0; k < source.idx.size(); ++k) {
        const std::uint32_t col = source.idx[k];
        work_coef_[col] ^= F::mul(factor, source.val[k]);
        touch(col);
      }
    }
    payload_axpy(factor, source);
  }

  void touch(std::uint32_t col) {
    if (is_touched_[col] != 0) return;
    is_touched_[col] = 1;
    touched_.push_back(col);
  }

  /// Re-zero the scratch row and the touched flags for the next call.
  void clear_touched() {
    for (const std::uint32_t j : touched_) {
      work_coef_[j] = 0;
      is_touched_[j] = 0;
    }
    touched_.clear();
  }

  /// Normalize the work row (dense-scan variant) so the pivot is 1.
  void normalize_work(std::size_t pivot, std::size_t end) {
    const Symbol piv = work_coef_[pivot];
    if (piv == 1) return;
    const Symbol piv_inv = F::inv(piv);
    F::scale(std::span<Symbol>(work_coef_).subspan(pivot, end - pivot), piv_inv);
    if (payload_size_ > 0) F::scale(std::span<Symbol>(work_payload_), piv_inv);
  }

  /// Normalize the work row (sparse variant): only touched columns.
  void normalize_work_touched(std::size_t pivot) {
    const Symbol piv = work_coef_[pivot];
    if (piv == 1) return;
    const Symbol piv_inv = F::inv(piv);
    for (const std::uint32_t j : touched_) {
      if (work_coef_[j] != 0) work_coef_[j] = F::mul(piv_inv, work_coef_[j]);
    }
    if (payload_size_ > 0) F::scale(std::span<Symbol>(work_payload_), piv_inv);
  }

  /// Build the stored row from the work buffers (consuming and re-zeroing
  /// them), back-eliminate every stored row that intersects the new pivot
  /// column, and register the new row.
  void store_and_back_eliminate(std::size_t pivot, std::size_t end, bool from_sparse) {
    auto row = std::make_unique<Row>();
    row->pivot = pivot;
    row->end = end;
    std::size_t nnz = 0;
    if (!from_sparse) {
      // Dense-scan path: support is the contiguous window [pivot, end).
      for (std::size_t j = pivot; j < end; ++j) nnz += work_coef_[j] != 0 ? 1 : 0;
      if (should_store_dense(nnz, end - pivot)) {
        row->dense = true;
        row->coef.assign(work_coef_.begin() + static_cast<std::ptrdiff_t>(pivot),
                         work_coef_.begin() + static_cast<std::ptrdiff_t>(end));
      } else {
        row->idx.reserve(nnz);
        row->val.reserve(nnz);
        for (std::size_t j = pivot; j < end; ++j) {
          if (work_coef_[j] != 0) {
            row->idx.push_back(static_cast<std::uint32_t>(j));
            row->val.push_back(work_coef_[j]);
          }
        }
      }
      std::fill(work_coef_.begin() + static_cast<std::ptrdiff_t>(pivot),
                work_coef_.begin() + static_cast<std::ptrdiff_t>(end), Symbol{0});
    } else {
      std::sort(touched_.begin(), touched_.end());
      for (const std::uint32_t j : touched_) nnz += work_coef_[j] != 0 ? 1 : 0;
      if (should_store_dense(nnz, end - pivot)) {
        row->dense = true;
        row->coef.assign(work_coef_.begin() + static_cast<std::ptrdiff_t>(pivot),
                         work_coef_.begin() + static_cast<std::ptrdiff_t>(end));
      } else {
        row->idx.reserve(nnz);
        row->val.reserve(nnz);
        for (const std::uint32_t j : touched_) {
          if (work_coef_[j] == 0) continue;
          row->idx.push_back(j);
          row->val.push_back(work_coef_[j]);
        }
      }
      clear_touched();
    }
    row->payload = std::move(work_payload_);
    work_payload_.clear();
    PRLC_ASSERT(row->end > row->pivot, "stored row has an empty support window");
    PRLC_DASSERT(row_coefficient_of(*row, row->end - 1) != 0,
                 "stored row support bound is not tight");

    back_eliminate(*row);

    register_row(*row, static_cast<std::uint32_t>(pivot));
    by_pivot_[pivot] = std::move(row);
    ++rank_;
    const std::size_t prefix_before = decoded_prefix_;
    advance_prefix();
    if (decoded_prefix_ != prefix_before) {
      obs::emit(obs::EventType::kWatermarkAdvance, static_cast<double>(decoded_prefix_),
                static_cast<double>(seen_));
    }
    static obs::Gauge& watermark = obs::gauge("decoder.prefix_watermark");
    watermark.set_max(static_cast<std::int64_t>(decoded_prefix_));
  }

  Symbol row_coefficient_of(const Row& r, std::size_t col) const {
    if (col < r.pivot || col >= r.end) return 0;
    if (r.dense) return r.coef[col - r.pivot];
    const auto it = std::lower_bound(r.idx.begin(), r.idx.end(),
                                     static_cast<std::uint32_t>(col));
    if (it == r.idx.end() || *it != col) return 0;
    return r.val[static_cast<std::size_t>(it - r.idx.begin())];
  }

  /// Index a freshly stored (or densified) row so later back-eliminations
  /// can find it. Singleton rows are skipped: their only nonzero is their
  /// own pivot column, which no future row can carry after forward
  /// elimination.
  void register_row(Row& row, std::uint32_t pivot_id) {
    if (is_singleton(row)) return;
    if (row.dense) {
      register_dense_cover(row, pivot_id);
    } else {
      for (const std::uint32_t col : row.idx) {
        if (col != row.pivot) cols_[col].push_back(pivot_id);
      }
    }
  }

  void register_dense_cover(Row& row, std::uint32_t pivot_id) {
    const auto first = static_cast<std::uint32_t>(row.pivot / kCoverBlock);
    const auto last = static_cast<std::uint32_t>((row.end - 1) / kCoverBlock);
    const std::uint32_t from = std::max(first, row.cover_end_block);
    for (std::uint32_t b = from; b <= last; ++b) dense_cover_[b].push_back(pivot_id);
    if (last + 1 > row.cover_end_block) row.cover_end_block = last + 1;
  }

  /// Eliminate the new pivot column from every stored row that carries a
  /// nonzero there. Sparse targets are found through the exact column
  /// index; dense targets through the block cover. Payload updates for
  /// *all* targets — and coefficient updates for dense-on-dense — share
  /// the batched SIMD axpy when the field provides one (the PR 2 kernel
  /// path): that is the "dense residual" of the hybrid.
  void back_eliminate(Row& row) {
    static obs::Counter& back_rows = obs::counter("decoder.back_elim_rows");
    const std::size_t pivot = row.pivot;

    // Gather targets: stored rows with a nonzero coefficient at `pivot`.
    targets_.clear();
    auto& col_entries = cols_[pivot];
    std::sort(col_entries.begin(), col_entries.end());
    std::uint32_t prev = 0xffffffffu;
    for (const std::uint32_t id : col_entries) {
      if (id == prev) continue;  // duplicate registration (re-filled column)
      prev = id;
      const Row* r = by_pivot_[id].get();
      if (r == nullptr || r->dense) continue;  // stale: densified since
      if (row_coefficient_of(*r, pivot) != 0) targets_.push_back(id);
    }
    // After this elimination every stored row is zero at `pivot`, and no
    // future merge can refill it (all sources are zero there too): the
    // column's index can be dropped for good — bounded memory, the same
    // trick the peeling decoder plays with its waiter lists.
    col_entries.clear();
    col_entries.shrink_to_fit();
    auto& cover = dense_cover_[pivot / kCoverBlock];
    std::size_t kept = 0;
    for (const std::uint32_t id : cover) {
      Row* r = by_pivot_[id].get();
      if (r == nullptr || !r->dense || is_singleton(*r)) continue;  // stale
      cover[kept++] = id;
      if (pivot >= r->pivot && pivot < r->end && r->coef[pivot - r->pivot] != 0) {
        targets_.push_back(id);
      }
    }
    cover.resize(kept);

    back_rows.add(targets_.size());
    if (targets_.empty()) return;

    batch_payload_targets_.clear();
    batch_coef_targets_.clear();
    batch_coef_factors_.clear();
    batch_factors_.clear();
    for (const std::uint32_t id : targets_) {
      Row& r = *by_pivot_[id];
      const Symbol factor = row_coefficient_of(r, pivot);
      if (payload_size_ > 0) batch_payload_targets_.push_back(r.payload.data());
      batch_factors_.push_back(factor);
      if (row.dense && r.dense) {
        // Dense-on-dense: grow the window now, defer the axpy to the
        // batched kernel below (one cache-tiled pass over the source).
        if (row.end > r.end) {
          r.coef.resize(row.end - r.pivot, Symbol{0});
          r.end = row.end;
          register_dense_cover(r, id);
        }
        batch_coef_targets_.push_back(r.coef.data() + (pivot - r.pivot));
        batch_coef_factors_.push_back(factor);
      } else {
        eliminate_stored(r, factor, row, id);
      }
    }
    if (!batch_coef_targets_.empty()) {
      F::axpy_batch(std::span<Symbol* const>(batch_coef_targets_),
                    std::span<const Symbol>(batch_coef_factors_),
                    std::span<const Symbol>(row.coef));
      // Re-tighten the deferred dense-on-dense targets.
      for (const std::uint32_t id : targets_) {
        Row& r = *by_pivot_[id];
        if (row.dense && r.dense) tighten_dense(r);
      }
    }
    if (payload_size_ > 0) {
      F::axpy_batch(std::span<Symbol* const>(batch_payload_targets_),
                    std::span<const Symbol>(batch_factors_),
                    std::span<const Symbol>(row.payload));
    }
  }

  /// Re-tighten a dense row's support bound after an elimination zeroed
  /// trailing coefficients (the satellite fix for the grow-only bound the
  /// dense decoder used to keep) and drop the now-dead tail storage.
  void tighten_dense(Row& target) {
    while (target.end > target.pivot + 1 && target.coef[target.end - target.pivot - 1] == 0) {
      --target.end;
    }
    target.coef.resize(target.end - target.pivot);
    PRLC_DASSERT(target.coef[target.end - target.pivot - 1] != 0,
                 "dense row support bound is not tight");
  }

  /// target -= factor * source (coefficients only; payloads are batched by
  /// the caller). Maintains representation invariants: window growth,
  /// tight support bound, density threshold, and index registration.
  void eliminate_stored(Row& target, Symbol factor, const Row& source,
                        std::uint32_t target_id) {
    if (target.dense) {
      // Grow the window right if the source extends past it (the source's
      // pivot is inside the target's window already — it held a nonzero).
      if (source.end > target.end) {
        target.coef.resize(source.end - target.pivot, Symbol{0});
        target.end = source.end;
        register_dense_cover(target, target_id);
      }
      const std::size_t off = source.pivot - target.pivot;
      if (source.dense) {
        F::axpy(std::span<Symbol>(target.coef).subspan(off, source.end - source.pivot),
                factor, std::span<const Symbol>(source.coef));
      } else {
        for (std::size_t k = 0; k < source.idx.size(); ++k) {
          target.coef[source.idx[k] - target.pivot] ^= F::mul(factor, source.val[k]);
        }
      }
      tighten_dense(target);
      return;
    }

    // Sparse target: merge the scaled source support into the sorted
    // (idx, val) arrays, dropping cancellations and registering fill-in.
    merge_idx_.clear();
    merge_val_.clear();
    fill_cols_.clear();
    const auto emit = [&](std::uint32_t col, Symbol value) {
      if (value == 0) return;
      merge_idx_.push_back(col);
      merge_val_.push_back(value);
    };
    std::size_t a = 0;  // cursor over target.idx
    const auto source_at = [&](std::size_t k) -> std::pair<std::uint32_t, Symbol> {
      if (source.dense) {
        return {static_cast<std::uint32_t>(source.pivot + k), source.coef[k]};
      }
      return {source.idx[k], source.val[k]};
    };
    const std::size_t src_n = source.dense ? source.end - source.pivot : source.idx.size();
    std::size_t b = 0;
    while (a < target.idx.size() || b < src_n) {
      // Advance past zero slots in a dense source window.
      if (b < src_n && source_at(b).second == 0) {
        ++b;
        continue;
      }
      if (b >= src_n || (a < target.idx.size() && target.idx[a] < source_at(b).first)) {
        emit(target.idx[a], target.val[a]);
        ++a;
      } else if (a >= target.idx.size() || source_at(b).first < target.idx[a]) {
        // Fill-in: a column the target did not carry before. The product
        // of two nonzero field elements is nonzero, so this always lands.
        const auto [col, sval] = source_at(b);
        emit(col, F::mul(factor, sval));
        fill_cols_.push_back(col);
        ++b;
      } else {
        const auto [col, sval] = source_at(b);
        emit(col, static_cast<Symbol>(target.val[a] ^ F::mul(factor, sval)));
        ++a;
        ++b;
      }
    }
    target.idx.swap(merge_idx_);
    target.val.swap(merge_val_);
    target.end = target.idx.empty() ? target.pivot + 1 : target.idx.back() + 1;
    PRLC_ASSERT(!target.idx.empty() && target.idx.front() == target.pivot,
                "sparse row lost its pivot during elimination");
    if (should_store_dense(target.idx.size(), target.end - target.pivot)) {
      densify(target, target_id);
      return;
    }
    for (const std::uint32_t col : fill_cols_) cols_[col].push_back(target_id);
  }

  void densify(Row& target, std::uint32_t target_id) {
    ++densifications_;
    static obs::Counter& densified = obs::counter("decoder.rows_densified");
    densified.add();
    obs::emit(obs::EventType::kRowDensified, static_cast<double>(target.pivot),
              static_cast<double>(target.end - target.pivot));
    target.dense = true;
    target.coef.assign(target.end - target.pivot, Symbol{0});
    for (std::size_t k = 0; k < target.idx.size(); ++k) {
      target.coef[target.idx[k] - target.pivot] = target.val[k];
    }
    target.idx.clear();
    target.idx.shrink_to_fit();
    target.val.clear();
    target.val.shrink_to_fit();
    // Old cols_ entries go stale and are dropped lazily; the cover index
    // takes over.
    register_dense_cover(target, target_id);
  }

  void advance_prefix() {
    while (decoded_prefix_ < unknowns_) {
      const Row* r = by_pivot_[decoded_prefix_].get();
      if (r == nullptr || !is_singleton(*r)) break;
      ++decoded_prefix_;
    }
  }

  std::size_t unknowns_;
  std::size_t payload_size_;
  std::vector<std::unique_ptr<Row>> by_pivot_;
  /// Exact column -> sparse-row index (pivot ids); entries may be stale
  /// (cancelled or densified rows) and are dropped lazily.
  std::vector<std::vector<std::uint32_t>> cols_;
  /// Coarse block -> dense-row cover index (pivot ids), kCoverBlock wide.
  std::vector<std::vector<std::uint32_t>> dense_cover_;
  std::size_t rank_ = 0;
  std::size_t seen_ = 0;
  std::size_t decoded_prefix_ = 0;
  std::size_t peel_ops_ = 0;
  std::size_t densifications_ = 0;
  /// Full-width scratch row, all-zero between add() calls.
  std::vector<Symbol> work_coef_;
  gf::AlignedVector<Symbol> work_payload_;
  // Sparse-path scratch: the columns the work row touched (input and
  // fill-in, each once, flagged in is_touched_; all-zero between add()
  // calls), and gathered input indices/values.
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint8_t> is_touched_;
  std::vector<std::uint32_t> in_idx_;
  std::vector<Symbol> in_val_;
  // Back-elimination scratch (reused across add() calls).
  std::vector<std::uint32_t> targets_;
  std::vector<Symbol*> batch_payload_targets_;
  std::vector<Symbol> batch_factors_;
  std::vector<Symbol*> batch_coef_targets_;
  std::vector<Symbol> batch_coef_factors_;
  std::vector<std::uint32_t> merge_idx_;
  std::vector<Symbol> merge_val_;
  std::vector<std::uint32_t> fill_cols_;
};

}  // namespace prlc::linalg
