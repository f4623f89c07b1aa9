// Dense matrices over GF(2^8), sized for erasure-code work (n, k ≤ 255).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pahoehoe::erasure {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  uint8_t at(int r, int c) const { return data_[index(r, c)]; }
  uint8_t& at(int r, int c) { return data_[index(r, c)]; }
  /// Every entry, row-major: the coefficient layout gf256::dot_prod takes.
  std::span<const uint8_t> data() const { return data_; }

  /// Identity matrix of the given size.
  static Matrix identity(int size);
  /// Vandermonde matrix: at(r, c) = r^c. Any square submatrix formed from
  /// distinct rows of a Vandermonde matrix with ≤255 rows is invertible.
  static Matrix vandermonde(int rows, int cols);

  /// Matrix product this × rhs; cols() must equal rhs.rows().
  Matrix multiply(const Matrix& rhs) const;
  /// Matrix formed from the listed rows of this matrix, in order.
  Matrix select_rows(const std::vector<int>& row_indices) const;
  /// Inverse via Gauss-Jordan elimination; the matrix must be square and
  /// nonsingular (PAHOEHOE_CHECK enforced — callers guarantee this by
  /// construction for RS matrices).
  Matrix inverted() const;
  /// True iff square and invertible (non-destructive test).
  bool invertible() const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  size_t index(int r, int c) const;
  /// Gauss-Jordan; returns false if singular. On success *out is the inverse.
  bool try_invert(Matrix* out) const;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<uint8_t> data_;
};

}  // namespace pahoehoe::erasure
