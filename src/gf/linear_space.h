#pragma once
// Incrementally maintained row space over GF(2^8).
//
// The secrecy analysis (Sec. 4's reliability metric) models everything Eve
// has seen as a set of linear functionals of the round's x-packets. This
// class keeps that set as a row-reduced basis so that
//   - inserting an observation is O(rank * dim), and a unit observation
//     of a column no basis row touches is O(rank),
//   - "does this functional add information?" is a residual test,
//   - equivocation queries reduce to rank arithmetic.

#include <cstddef>
#include <span>
#include <vector>

#include "gf/matrix.h"

namespace thinair::gf {

/// A subspace of F_256^dim maintained as a reduced row-echelon basis.
class LinearSpace {
 public:
  explicit LinearSpace(std::size_t dim) : dim_(dim) {}

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t rank() const { return basis_.size(); }

  /// Insert a vector; returns true when it was independent of (and thus
  /// enlarged) the space. Vector length must equal dim(). The return
  /// value is the rank-growth signal the secrecy analysis is built on —
  /// callers that genuinely only want the side effect must say so with
  /// std::ignore.
  [[nodiscard]] bool insert(std::span<const std::uint8_t> v);

  /// Insert every row of m (m.cols() must equal dim()); returns the number
  /// of rows that enlarged the space. Discardable: bulk observation
  /// feeds routinely ignore the per-batch count (rank() has the total).
  std::size_t insert_rows(const Matrix& m);

  /// Insert the `index`-th unit vector (an observation of one raw symbol).
  [[nodiscard]] bool insert_unit(std::size_t index);

  /// True when v lies in the span.
  [[nodiscard]] bool contains(std::span<const std::uint8_t> v) const;

  /// rank(space + rows of m) - rank(space): how many dimensions of m remain
  /// unknown given this space. This is exactly the per-symbol equivocation
  /// of a secret with combination matrix m given these observations.
  [[nodiscard]] std::size_t residual_rank(const Matrix& m) const;

  /// The current basis as a matrix (rank() x dim()).
  [[nodiscard]] Matrix basis() const;

 private:
  /// Reduce v against the basis in place; returns the column of its leading
  /// nonzero entry, or dim_ when v reduces to zero.
  std::size_t reduce(std::vector<std::uint8_t>& v) const;

  /// insert() taking ownership of the candidate row (no defensive copy).
  [[nodiscard]] bool insert_owned(std::vector<std::uint8_t> w);

  /// Place a normalised row, already reduced against the basis and with
  /// the basis reduced against it, at its sorted position.
  void insert_reduced(std::size_t pivot, std::vector<std::uint8_t> row);

  std::size_t dim_;
  // Rows kept sorted by pivot column; each row is normalised (pivot == 1)
  // and fully reduced against the others.
  std::vector<std::vector<std::uint8_t>> basis_;
  std::vector<std::size_t> pivots_;
};

}  // namespace thinair::gf
