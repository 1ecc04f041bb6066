// Batch Gauss-Jordan elimination: reduced row-echelon form and rank.
//
// The paper (Sec. 3.2) uses Gauss-Jordan rather than plain Gaussian
// elimination because the RREF exposes partial solutions of an
// underdetermined system: once the first k columns carry an identity
// submatrix, the first k unknowns are solved. This header provides the
// batch variant (whole matrix at once) used by tests and by one-shot
// decodes; the online variant lives in progressive_decoder.h.
#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "obs/metrics.h"

namespace prlc::linalg {

/// Result of an RREF reduction.
struct RrefInfo {
  std::size_t rank = 0;
  /// pivot_cols[i] is the column of the i-th pivot row, strictly increasing.
  std::vector<std::size_t> pivot_cols;
};

/// In-place reduction of `m` to reduced row-echelon form. If `rhs` is
/// non-null it must have the same number of rows; identical row operations
/// are applied to it (the "payload" side of a decoding matrix).
template <gf::FieldPolicy F>
RrefInfo rref(Matrix<F>& m, Matrix<F>* rhs = nullptr) {
  if (rhs != nullptr) {
    PRLC_REQUIRE(rhs->rows() == m.rows(), "rhs row count must match the matrix");
  }
  using Symbol = typename F::Symbol;
  static obs::Counter& calls = obs::counter("linalg.rref_calls");
  static obs::Counter& eliminated = obs::counter("linalg.rref_rows_eliminated");
  calls.add();
  RrefInfo info;
  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < m.cols() && pivot_row < m.rows(); ++col) {
    // Find a row at or below pivot_row with a nonzero in this column.
    std::size_t found = m.rows();
    for (std::size_t r = pivot_row; r < m.rows(); ++r) {
      if (m.at(r, col) != 0) {
        found = r;
        break;
      }
    }
    if (found == m.rows()) continue;
    if (found != pivot_row) {
      for (std::size_t c = 0; c < m.cols(); ++c) std::swap(m.at(found, c), m.at(pivot_row, c));
      if (rhs != nullptr) {
        for (std::size_t c = 0; c < rhs->cols(); ++c) {
          std::swap(rhs->at(found, c), rhs->at(pivot_row, c));
        }
      }
    }
    // Normalize the pivot row.
    const Symbol piv = m.at(pivot_row, col);
    if (piv != 1) {
      const Symbol piv_inv = F::inv(piv);
      F::scale(m.row(pivot_row), piv_inv);
      if (rhs != nullptr) F::scale(rhs->row(pivot_row), piv_inv);
    }
    // Eliminate the column everywhere else (above and below: Jordan step)
    // in two multi-row axpy calls, so the pivot row streams through cache
    // once for all targets.
    std::vector<Symbol*> targets;
    std::vector<Symbol*> rhs_targets;
    std::vector<Symbol> factors;
    targets.reserve(m.rows());
    factors.reserve(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (r == pivot_row) continue;
      const Symbol factor = m.at(r, col);
      if (factor == 0) continue;
      targets.push_back(m.row(r).data());
      if (rhs != nullptr) rhs_targets.push_back(rhs->row(r).data());
      factors.push_back(factor);
    }
    eliminated.add(factors.size());
    F::axpy_batch(std::span<Symbol* const>(targets), std::span<const Symbol>(factors),
                  m.row(pivot_row));
    if (rhs != nullptr) {
      F::axpy_batch(std::span<Symbol* const>(rhs_targets), std::span<const Symbol>(factors),
                    rhs->row(pivot_row));
    }
    info.pivot_cols.push_back(col);
    ++pivot_row;
  }
  info.rank = pivot_row;
  return info;
}

/// Rank of a matrix (by copy + RREF).
template <gf::FieldPolicy F>
std::size_t rank(const Matrix<F>& m) {
  Matrix<F> copy = m;
  return rref(copy).rank;
}

/// Length of the solved prefix exposed by an RREF: the largest k such that
/// the first k columns contain unit pivots and no other nonzero appears in
/// those pivot rows (i.e., unknowns 0..k-1 are fully determined). This is
/// exactly the paper's partial-decoding criterion (Fig. 2(c)).
template <gf::FieldPolicy F>
std::size_t solved_prefix(const Matrix<F>& rref_matrix, const RrefInfo& info) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < info.pivot_cols.size(); ++i) {
    if (info.pivot_cols[i] != k) break;
    // The pivot row must be a unit vector for the unknown to be decoded.
    bool unit = true;
    auto row = rref_matrix.row(i);
    for (std::size_t c = 0; c < rref_matrix.cols(); ++c) {
      if (c != k && row[c] != 0) {
        unit = false;
        break;
      }
    }
    if (!unit) break;
    ++k;
  }
  return k;
}

}  // namespace prlc::linalg
