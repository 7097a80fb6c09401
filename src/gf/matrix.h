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
//
// Either way every row starts on a 64-byte boundary, at a stride of
// cols() rounded up to 64: the GF kernels stream whole rows, and a row's
// masked SIMD tail store then never shares a cache line with the next
// row's first loads.

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "gf/gf256.h"
#include "packet/arena.h"

namespace thinair::gf {

/// Row-major dense matrix over GF(2^8). Rows sit 64-byte aligned at a
/// stride of cols() rounded up to 64; row() spans are cols() long and the
/// padding between rows is never read.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : Matrix(rows, cols, Uninit{}) {
    std::fill_n(data_, rows_ * stride_, std::uint8_t{0});
  }

  /// Arena-backed: zeroed rows bump-allocated from `arena`, padding
  /// included.
  Matrix(std::size_t rows, std::size_t cols, packet::PayloadArena& arena)
      : rows_(rows), cols_(cols), stride_(stride_for(cols)),
        data_(arena.alloc(rows * stride_).data()) {}

  Matrix(const Matrix& o) : Matrix(o.rows_, o.cols_, Uninit{}) {
    for (std::size_t r = 0; r < rows_; ++r)
      std::copy_n(o.row_ptr(r), cols_, row_ptr(r));
  }
  Matrix& operator=(const Matrix& o) {
    if (this != &o) *this = Matrix(o);  // copy then move
    return *this;
  }
  // Moving the owner keeps its buffer, so data_ stays valid either way.
  Matrix(Matrix&& o) noexcept
      : rows_(o.rows_), cols_(o.cols_), stride_(o.stride_),
        owned_(std::move(o.owned_)), data_(o.data_) {
    o.rows_ = o.cols_ = o.stride_ = 0;
    o.data_ = nullptr;
  }
  Matrix& operator=(Matrix&& o) noexcept {
    if (this != &o) {
      rows_ = o.rows_;
      cols_ = o.cols_;
      stride_ = o.stride_;
      owned_ = std::move(o.owned_);
      data_ = o.data_;
      o.rows_ = o.cols_ = o.stride_ = 0;
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
    return GF256(row_ptr(r)[c]);
  }
  void set(std::size_t r, std::size_t c, GF256 v) { row_ptr(r)[c] = v.value(); }

  [[nodiscard]] std::span<const std::uint8_t> row(std::size_t r) const {
    return {row_ptr(r), cols_};
  }
  [[nodiscard]] std::span<std::uint8_t> row(std::size_t r) {
    return {row_ptr(r), cols_};
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
    if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
    for (std::size_t r = 0; r < a.rows_; ++r)
      if (!std::equal(a.row_ptr(r), a.row_ptr(r) + a.cols_, b.row_ptr(r)))
        return false;
    return true;
  }

 private:
  // Row alignment and stride granularity: one cache line and one AVX-512
  // vector.
  static constexpr std::size_t kRowAlign = 64;

  struct Uninit {};
  /// Heap-owned with rows left unwritten: the buffer over-allocates by
  /// kRowAlign - 1 bytes so its first row can start aligned.
  Matrix(std::size_t rows, std::size_t cols, Uninit);

  static constexpr std::size_t stride_for(std::size_t cols) {
    return (cols + kRowAlign - 1) & ~(kRowAlign - 1);
  }
  [[nodiscard]] const std::uint8_t* row_ptr(std::size_t r) const {
    return data_ + r * stride_;
  }
  [[nodiscard]] std::uint8_t* row_ptr(std::size_t r) {
    return data_ + r * stride_;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::unique_ptr<std::uint8_t[]> owned_;  // null when arena-backed
  std::uint8_t* data_ = nullptr;  // aligned into owned_, or the arena span
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace thinair::gf
