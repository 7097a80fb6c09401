#pragma once
// Dense matrices over GF(2^8) with the linear algebra the protocol needs:
// multiplication (packet combining), Gaussian elimination (decoding at the
// terminals), rank (secrecy/equivocation analysis and MDS sub-matrix
// checks) and linear solves.
//
// Storage is either heap-owned (the default) or carved from a
// packet::PayloadArena: the per-round coefficient matrices of the encode
// and analysis paths live in the runtime's per-worker arenas, so building
// and row-reducing them allocates nothing. An arena-backed matrix must not
// outlive a reset()/rewind() past its span; copying one (copy ctor,
// assignment, or any derived-matrix method) always yields a heap-owning
// result, so only the original aliases the arena.

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gf/gf256.h"
#include "packet/arena.h"

namespace thinair::gf {

/// Row-major dense matrix over GF(2^8).
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), owned_(rows * cols, std::uint8_t{0}),
        data_(owned_.data()) {}

  /// Arena-backed: rows*cols zeroed bytes bump-allocated from `arena`.
  Matrix(std::size_t rows, std::size_t cols, packet::PayloadArena& arena)
      : rows_(rows), cols_(cols), data_(arena.alloc(rows * cols).data()) {}

  Matrix(const Matrix& o)
      : rows_(o.rows_), cols_(o.cols_),
        owned_(o.data_, o.data_ + o.rows_ * o.cols_), data_(owned_.data()) {}
  Matrix& operator=(const Matrix& o) {
    if (this != &o) *this = Matrix(o);  // copy then move
    return *this;
  }
  Matrix(Matrix&& o) noexcept
      : rows_(o.rows_), cols_(o.cols_), owned_(std::move(o.owned_)),
        data_(owned_.empty() ? o.data_ : owned_.data()) {
    o.rows_ = o.cols_ = 0;
    o.data_ = nullptr;
  }
  Matrix& operator=(Matrix&& o) noexcept {
    if (this != &o) {
      rows_ = o.rows_;
      cols_ = o.cols_;
      owned_ = std::move(o.owned_);
      data_ = owned_.empty() ? o.data_ : owned_.data();
      o.rows_ = o.cols_ = 0;
      o.data_ = nullptr;
    }
    return *this;
  }

  /// Build from nested initializer lists of raw byte values; all inner
  /// lists must have equal length.
  Matrix(std::initializer_list<std::initializer_list<unsigned>> rows);

  static Matrix identity(std::size_t n);
  static Matrix zero(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols);
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] GF256 at(std::size_t r, std::size_t c) const {
    return GF256(data_[r * cols_ + c]);
  }
  void set(std::size_t r, std::size_t c, GF256 v) {
    data_[r * cols_ + c] = v.value();
  }

  [[nodiscard]] std::span<const std::uint8_t> row(std::size_t r) const {
    return {data_ + r * cols_, cols_};
  }
  [[nodiscard]] std::span<std::uint8_t> row(std::size_t r) {
    return {data_ + r * cols_, cols_};
  }

  /// C = (*this) * rhs. Requires cols() == rhs.rows(). Runs through the
  /// fused mad_multi kernels (each rhs row streamed once per block of
  /// kMaxFusedRows output rows).
  [[nodiscard]] Matrix mul(const Matrix& rhs) const;
  /// As mul(), with the result carved from `arena`.
  [[nodiscard]] Matrix mul(const Matrix& rhs, packet::PayloadArena& arena) const;

  [[nodiscard]] Matrix transpose() const;

  /// Rows of `below` appended under this matrix (column counts must match).
  [[nodiscard]] Matrix vstack(const Matrix& below) const;
  /// Columns of `right` appended to the right (row counts must match).
  [[nodiscard]] Matrix hstack(const Matrix& right) const;

  /// New matrix keeping only the given columns, in the given order.
  [[nodiscard]] Matrix select_columns(std::span<const std::size_t> cols) const;
  /// New matrix keeping only the given rows, in the given order.
  [[nodiscard]] Matrix select_rows(std::span<const std::size_t> rows) const;

  /// In-place reduction to reduced row-echelon form; returns pivot columns.
  std::vector<std::size_t> row_reduce();

  [[nodiscard]] std::size_t rank() const;
  [[nodiscard]] bool invertible() const {
    return rows_ == cols_ && rank() == rows_;
  }

  /// Solve (*this) * X = B for X. Returns std::nullopt when inconsistent or
  /// underdetermined (the solution must be unique).
  [[nodiscard]] std::optional<Matrix> solve(const Matrix& b) const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           std::equal(a.data_, a.data_ + a.rows_ * a.cols_, b.data_);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> owned_;  // empty when arena-backed
  std::uint8_t* data_ = nullptr;     // owned_.data() or the arena span
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace thinair::gf
