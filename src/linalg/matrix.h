// Dense matrices over a GF(2^m) field policy.
//
// Row-major storage; rows are exposed as spans so coding kernels can use
// the field's bulk operations. Sized for the paper's scales (N ~ 1000
// source blocks), so no blocking/tiling is attempted.
#pragma once

#include <span>
#include <vector>

#include "gf/field_concept.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::linalg {

template <gf::FieldPolicy F>
class Matrix {
 public:
  using Symbol = typename F::Symbol;

  Matrix() = default;

  /// rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, Symbol{0}) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  Symbol& at(std::size_t r, std::size_t c) {
    PRLC_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  Symbol at(std::size_t r, std::size_t c) const {
    PRLC_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  std::span<Symbol> row(std::size_t r) {
    PRLC_REQUIRE(r < rows_, "matrix row out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const Symbol> row(std::size_t r) const {
    PRLC_REQUIRE(r < rows_, "matrix row out of range");
    return {data_.data() + r * cols_, cols_};
  }

  /// Append a row (copied); must match the column count (or set it if
  /// this is the first row of a default-constructed matrix).
  void append_row(std::span<const Symbol> values) {
    if (rows_ == 0 && cols_ == 0) cols_ = values.size();
    PRLC_REQUIRE(values.size() == cols_, "appended row width mismatch");
    data_.insert(data_.end(), values.begin(), values.end());
    ++rows_;
  }

  /// n x n identity.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = Symbol{1};
    return m;
  }

  /// Matrix with every entry drawn uniformly from the field.
  static Matrix random(std::size_t rows, std::size_t cols, Rng& rng) {
    Matrix m(rows, cols);
    for (auto& v : m.data_) v = static_cast<Symbol>(rng.uniform(F::order()));
    return m;
  }

  /// this * other (naive cubic product; test-support only).
  Matrix multiply(const Matrix& other) const {
    PRLC_REQUIRE(cols_ == other.rows_, "matrix product shape mismatch");
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = 0; k < cols_; ++k) {
        const Symbol a = at(i, k);
        if (a == 0) continue;
        F::axpy(out.row(i), a, other.row(k));
      }
    }
    return out;
  }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Symbol> data_;
};

}  // namespace prlc::linalg
