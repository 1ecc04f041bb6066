// Online Gauss-Jordan elimination with payload rows — the partial-decoding
// engine of Sec. 3.2.
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
// One row shape. Every pivot row is a dense coefficient window
// [pivot, end) with a tight bound (the coefficient at end-1 is nonzero),
// plus its payload. Every equation — full width (add), a support window
// (add_window) or (index, value) pairs (add_sparse) — is written into a
// full-width scratch row and reduced by one left-to-right scan over its
// window: each nonzero at a pivot column is cleared with an axpy of that
// pivot's window, which can only fill columns to its right. The stored
// rows are in RREF, so clearing one pivot column never changes another.
// Eliminating against a decoded unknown (a one-column window) is the
// GF(2^q) generalization of XOR peeling — codes/peeling_decoder.{h,cpp} is
// the index-only XOR peeling decoder of the Sec.-6 baselines — and is
// counted as a peel. Back-elimination finds the stored rows that carry the
// new pivot column through a block-granular cover index and updates their
// windows and payloads with the batched axpy kernel.
//
// Complexity: an equation costs O(window) to scan plus one axpy per pivot
// column it meets. Priority codes keep windows small for high-priority
// rows (add_window takes a block's support: the level prefix for PLC, the
// level for SLC), and chunked sparsity (EncoderOptions.chunk_size) keeps
// every window inside its block's chunk, because elimination only mixes
// rows whose supports overlap: decoding curves at N = 10^5 run in
// O(chunk) memory per row (bench/abl_sparsity).
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
        cover_((unknowns + kCoverBlock - 1) / kCoverBlock),
        work_coef_(unknowns, Symbol{0}) {
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
  /// O(window) instead of O(unknowns).
  bool add_window(std::size_t first, std::span<const Symbol> window,
                  std::span<const Symbol> payload = {}) {
    PRLC_REQUIRE(first + window.size() <= unknowns_, "coefficient window out of range");
    PRLC_REQUIRE(payload.size() == payload_size_, "payload width mismatch");
    std::copy(window.begin(), window.end(), work_coef_.data() + first);
    return eliminate_work(first, first + window.size(), payload);
  }

  /// Insert one equation given in sparse form: strictly increasing
  /// in-range `indices` with matching nonzero `values`. Exactly
  /// equivalent to add() on the expanded row; the scan covers
  /// [indices.front(), indices.back() + 1) instead of all unknowns.
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
    PRLC_REQUIRE(payload.size() == payload_size_, "payload width mismatch");
    if (indices.empty()) return eliminate_work(0, 0, payload);
    for (std::size_t k = 0; k < indices.size(); ++k) work_coef_[indices[k]] = values[k];
    return eliminate_work(indices.front(), indices.back() + std::size_t{1}, payload);
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
    const Row& r = *by_pivot_[pivot];
    return col < r.pivot || col >= r.end ? Symbol{0} : r.coef[col - r.pivot];
  }

  /// Exclusive support bound of pivot row `pivot` — kept tight: the
  /// coefficient at end-1 is always nonzero.
  std::size_t row_support_end(std::size_t pivot) const {
    PRLC_REQUIRE(has_pivot(pivot), "no pivot row for this column");
    return by_pivot_[pivot]->end;
  }

  /// Storage/behaviour statistics for benches and tests (the number of
  /// stored rows is rank()).
  struct Stats {
    std::size_t coef_bytes = 0;  ///< resident coefficient bytes
    std::size_t peel_ops = 0;    ///< eliminations against decoded unknowns
  };
  Stats stats() const {
    Stats s;
    s.peel_ops = peel_ops_;
    for (const auto& r : by_pivot_) {
      if (r != nullptr) s.coef_bytes += r->coef.capacity() * sizeof(Symbol);
    }
    return s;
  }

 private:
  // Rows are indexed at this column granularity (cover_).
  static constexpr std::size_t kCoverBlock = 256;

  struct Row {
    std::size_t pivot = 0;
    std::size_t end = 0;                ///< exclusive support bound, kept tight
    std::vector<Symbol> coef;           ///< window [pivot, end)
    gf::AlignedVector<Symbol> payload;  ///< cache-line aligned for the kernels
    std::uint32_t cover_end_block = 0;  ///< cover_ registration bound
  };

  /// O(1) check for a decoded row (support bounds are kept tight, so a
  /// one-column window means exactly the unit pivot).
  static bool is_singleton(const Row& r) { return r.end == r.pivot + 1; }

  /// Forward elimination of the equation held in work_coef_[first, end)
  /// (zero elsewhere): scan left to right, clearing each pivot column, and
  /// store what is left as a new pivot row when it is nonzero. A pivot
  /// row's window starts at its pivot, so when the scan reaches column j
  /// the work row left of j is final; the new pivot is the first nonzero
  /// free column, and the scan goes on to clear the pivot columns right
  /// of it (the new row must be zero there too).
  bool eliminate_work(std::size_t first, std::size_t end, std::span<const Symbol> payload) {
    ++seen_;
    static obs::Counter& rows_received = obs::counter("decoder.rows_received");
    static obs::Counter& rows_innovative = obs::counter("decoder.rows_innovative");
    static obs::Counter& rows_redundant = obs::counter("decoder.rows_redundant");
    static obs::Counter& pivot_ops = obs::counter("decoder.pivot_ops");
    rows_received.add();

    work_payload_.assign(payload.begin(), payload.end());
    while (end > first && work_coef_[end - 1] == 0) --end;
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
      F::axpy(std::span<Symbol>(work_coef_).subspan(j, existing->end - j), v,
              std::span<const Symbol>(existing->coef));
      if (payload_size_ > 0) {
        F::axpy(std::span<Symbol>(work_payload_), v,
                std::span<const Symbol>(existing->payload));
      }
      if (existing->end > end) end = existing->end;
      PRLC_ASSERT(work_coef_[j] == 0, "forward elimination left a nonzero pivot");
    }
    if (pivot == unknowns_) {
      // Every column was cleared; the scratch row is all-zero again.
      rows_redundant.add();
      return false;
    }
    while (work_coef_[end - 1] == 0) --end;
    normalize_work(pivot, end);
    store_and_back_eliminate(pivot, end);
    rows_innovative.add();
    return true;
  }

  /// Normalize the work row so the pivot is 1.
  void normalize_work(std::size_t pivot, std::size_t end) {
    const Symbol piv = work_coef_[pivot];
    if (piv == 1) return;
    const Symbol piv_inv = F::inv(piv);
    F::scale(std::span<Symbol>(work_coef_).subspan(pivot, end - pivot), piv_inv);
    if (payload_size_ > 0) F::scale(std::span<Symbol>(work_payload_), piv_inv);
  }

  /// Build the stored row from the work buffers (consuming and re-zeroing
  /// them), back-eliminate every stored row that carries the new pivot
  /// column, and register the new row.
  void store_and_back_eliminate(std::size_t pivot, std::size_t end) {
    auto row = std::make_unique<Row>();
    row->pivot = pivot;
    row->end = end;
    const auto window_begin = work_coef_.begin() + static_cast<std::ptrdiff_t>(pivot);
    const auto window_end = work_coef_.begin() + static_cast<std::ptrdiff_t>(end);
    row->coef.assign(window_begin, window_end);
    std::fill(window_begin, window_end, Symbol{0});
    row->payload = std::move(work_payload_);
    work_payload_.clear();

    back_eliminate(*row);

    if (!is_singleton(*row)) register_cover(*row, static_cast<std::uint32_t>(pivot));
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

  /// Index a row under every cover block its window reaches that it is
  /// not registered in yet. A decoded row is never registered: its only
  /// nonzero is its own pivot column, which no other row carries.
  void register_cover(Row& row, std::uint32_t pivot_id) {
    const auto first = static_cast<std::uint32_t>(row.pivot / kCoverBlock);
    const auto last = static_cast<std::uint32_t>((row.end - 1) / kCoverBlock);
    const std::uint32_t from = std::max(first, row.cover_end_block);
    for (std::uint32_t b = from; b <= last; ++b) cover_[b].push_back(pivot_id);
    if (last + 1 > row.cover_end_block) row.cover_end_block = last + 1;
  }

  /// Eliminate the new pivot column from every stored row that carries a
  /// nonzero there, found through the cover block holding the column.
  /// Coefficient windows and payloads each take one batched axpy over the
  /// new row.
  void back_eliminate(const Row& row) {
    static obs::Counter& back_rows = obs::counter("decoder.back_elim_rows");
    const std::size_t pivot = row.pivot;

    // Gather targets; entries of rows decoded since they registered are
    // dropped on the way.
    targets_.clear();
    auto& cover = cover_[pivot / kCoverBlock];
    std::size_t kept = 0;
    for (const std::uint32_t id : cover) {
      const Row& r = *by_pivot_[id];
      if (is_singleton(r)) continue;
      cover[kept++] = id;
      if (pivot >= r.pivot && pivot < r.end && r.coef[pivot - r.pivot] != 0) {
        targets_.push_back(id);
      }
    }
    cover.resize(kept);

    back_rows.add(targets_.size());
    if (targets_.empty()) return;

    batch_coef_targets_.clear();
    batch_payload_targets_.clear();
    batch_factors_.clear();
    for (const std::uint32_t id : targets_) {
      Row& r = *by_pivot_[id];
      batch_factors_.push_back(r.coef[pivot - r.pivot]);
      // Grow the window now; the axpy below is one pass over the source.
      if (row.end > r.end) {
        r.coef.resize(row.end - r.pivot, Symbol{0});
        r.end = row.end;
        register_cover(r, id);
      }
      batch_coef_targets_.push_back(r.coef.data() + (pivot - r.pivot));
      if (payload_size_ > 0) batch_payload_targets_.push_back(r.payload.data());
    }
    F::axpy_batch(std::span<Symbol* const>(batch_coef_targets_),
                  std::span<const Symbol>(batch_factors_), std::span<const Symbol>(row.coef));
    for (const std::uint32_t id : targets_) tighten(*by_pivot_[id]);
    if (payload_size_ > 0) {
      F::axpy_batch(std::span<Symbol* const>(batch_payload_targets_),
                    std::span<const Symbol>(batch_factors_),
                    std::span<const Symbol>(row.payload));
    }
  }

  /// Re-tighten a row's support bound after an elimination zeroed trailing
  /// coefficients, and drop the now-dead tail.
  static void tighten(Row& r) {
    while (r.end > r.pivot + 1 && r.coef[r.end - r.pivot - 1] == 0) --r.end;
    r.coef.resize(r.end - r.pivot);
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
  /// Block -> rows whose window reaches it (pivot ids), kCoverBlock wide;
  /// entries of decoded rows are dropped lazily.
  std::vector<std::vector<std::uint32_t>> cover_;
  std::size_t rank_ = 0;
  std::size_t seen_ = 0;
  std::size_t decoded_prefix_ = 0;
  std::size_t peel_ops_ = 0;
  /// Full-width scratch row, all-zero between add() calls.
  std::vector<Symbol> work_coef_;
  gf::AlignedVector<Symbol> work_payload_;
  // Back-elimination scratch (reused across add() calls).
  std::vector<std::uint32_t> targets_;
  std::vector<Symbol*> batch_coef_targets_;
  std::vector<Symbol*> batch_payload_targets_;
  std::vector<Symbol> batch_factors_;
};

}  // namespace prlc::linalg
