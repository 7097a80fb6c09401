#pragma once
// Incrementally maintained row space over GF(2^8).
//
// The secrecy analysis (Sec. 4's reliability metric) models everything Eve
// has seen as a set of linear functionals of the round's x-packets. This
// class keeps that set as a fully reduced basis so that
//   - inserting an observation is O(rank * dim), and a unit observation
//     of a column no basis row touches is O(rank),
//   - "does this functional add information?" is a residual test,
//   - equivocation queries reduce to rank arithmetic.
//
// Storage: the basis rows sit in one dim x dim Matrix in insertion order
// (so on its 64-byte-aligned, 64-byte-multiple row stride), with the
// pivot column of each row beside it. The rank never exceeds dim, so the
// matrix is allocated on the first insert and never grows again; a
// candidate row is reduced in place in the next free row, so no later
// insert allocates. Row order does not matter to elimination (XOR
// accumulation is order-independent) and the reduced row-echelon basis of
// a space is unique, so basis() sorts by pivot on demand and returns the
// same matrix whatever the insertion order.

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
  [[nodiscard]] std::size_t rank() const { return pivots_.size(); }

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

  /// The reduced row-echelon basis as a matrix (rank() x dim(), rows
  /// sorted by pivot column).
  [[nodiscard]] Matrix basis() const;

 private:
  /// Reduce the candidate in the next free slot against the basis and,
  /// when it is independent, commit it as a new basis row.
  bool insert_candidate();

  /// Zero the candidate slot after the basis and return it.
  std::uint8_t* new_slot();

  std::size_t dim_;
  // Rows [0, rank()) are the basis in insertion order, then (during an
  // insert) the candidate row. Each basis row is normalised (1 at its
  // pivot) and zero at every other row's pivot. Empty until the first
  // insert, then dim_ x dim_.
  Matrix rows_;
  std::vector<std::size_t> pivots_;  // pivots_[i]: pivot column of row i
};

}  // namespace thinair::gf
