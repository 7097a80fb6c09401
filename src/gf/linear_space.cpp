#include "gf/linear_space.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gf/kernels.h"

namespace thinair::gf {

namespace {

/// Reduce v (dim bytes) against the first `count` rows of `rows`, which
/// are fully reduced: row b is 1 at pivots[b] and zero at every other
/// row's pivot. Returns the column of v's leading nonzero entry, or dim
/// when v reduces to zero. Reading every coefficient v[pivot] up front
/// (rather than interleaved with the eliminations) is sound because
/// eliminating with row b never changes v at another row's pivot column,
/// so the rows feed one fused gather: v is the shared output, blocks of
/// kMaxFusedRows rows the inputs.
std::size_t reduce_against(const Matrix& rows, const std::size_t* pivots,
                           std::size_t count, std::uint8_t* v,
                           std::size_t dim) {
  DotBatch batch(v, dim);
  for (std::size_t b = 0; b < count; ++b)
    batch.add(v[pivots[b]], rows.row(b).data());
  batch.flush();
  return static_cast<std::size_t>(
      std::find_if(v, v + dim, [](std::uint8_t x) { return x != 0; }) - v);
}

/// Normalise v (reduced against the rows, leading column `pivot`) and
/// eliminate column `pivot` from the first `count` rows, so that the rows
/// plus v are fully reduced. Fused: v is the shared input, batches of
/// kMaxFusedRows rows the outputs.
void absorb(Matrix& rows, std::size_t count, std::uint8_t* v,
            std::size_t pivot, std::size_t dim) {
  mul_row(GF256{v[pivot]}.inv(), v, v, dim);
  MadBatch batch(v, dim);
  for (std::size_t b = 0; b < count; ++b)
    batch.add(rows.row(b)[pivot], rows.row(b).data());
  batch.flush();
}

}  // namespace

bool LinearSpace::insert_candidate() {
  std::uint8_t* const v = rows_.row(rank()).data();
  const std::size_t pivot =
      reduce_against(rows_, pivots_.data(), rank(), v, dim_);
  if (pivot == dim_) return false;  // the slot is scratch again
  absorb(rows_, rank(), v, pivot, dim_);
  pivots_.push_back(pivot);
  return true;
}

std::uint8_t* LinearSpace::new_slot() {
  // The rank never exceeds dim_: one dim x dim matrix holds every row the
  // space can ever have, so row addresses stay valid.
  if (rows_.rows() == 0) {
    rows_ = Matrix(dim_, dim_);
    pivots_.reserve(dim_);
  }
  const std::span<std::uint8_t> slot = rows_.row(rank());
  std::fill(slot.begin(), slot.end(), std::uint8_t{0});
  return slot.data();
}

bool LinearSpace::insert(std::span<const std::uint8_t> v) {
  if (v.size() != dim_) throw std::invalid_argument("LinearSpace: bad length");
  if (rank() == dim_) return false;  // the space is everything
  std::copy(v.begin(), v.end(), new_slot());
  return insert_candidate();
}

std::size_t LinearSpace::insert_rows(const Matrix& m) {
  if (m.cols() != dim_)
    throw std::invalid_argument("LinearSpace: matrix width");
  std::size_t added = 0;
  for (std::size_t i = 0; i < m.rows(); ++i)
    if (insert(m.row(i))) ++added;
  return added;
}

bool LinearSpace::insert_unit(std::size_t index) {
  if (index >= dim_) throw std::out_of_range("LinearSpace: unit index");
  if (rank() == dim_) return false;
  // When no basis row touches column `index`, e_index is already reduced
  // (and `index` is no pivot) and back-substitution would be a no-op:
  // O(rank) reads instead of the O(rank * dim) general path.
  bool touched = false;
  for (std::size_t b = 0; b < rank() && !touched; ++b)
    touched = rows_.row(b)[index] != 0;
  new_slot()[index] = 1;
  if (touched) return insert_candidate();
  pivots_.push_back(index);
  return true;
}

bool LinearSpace::contains(std::span<const std::uint8_t> v) const {
  if (v.size() != dim_) throw std::invalid_argument("LinearSpace: bad length");
  std::vector<std::uint8_t> w(v.begin(), v.end());
  return reduce_against(rows_, pivots_.data(), rank(), w.data(), dim_) ==
         dim_;
}

std::size_t LinearSpace::residual_rank(const Matrix& m) const {
  // Rank counting only, with no copy of the basis: each candidate row is
  // reduced against the fixed basis, then against the previously accepted
  // candidates. Those are kept fully reduced among themselves, in one
  // matrix, and are zero at every fixed-basis pivot (each was reduced
  // against the basis first), so the second reduction keeps the first.
  if (m.cols() != dim_)
    throw std::invalid_argument("LinearSpace: matrix width");
  const std::size_t cap = std::min(m.rows(), dim_ - rank());
  Matrix fresh(cap, dim_);
  std::vector<std::size_t> fresh_pivots;
  fresh_pivots.reserve(cap);
  for (std::size_t i = 0; i < m.rows() && fresh_pivots.size() < cap; ++i) {
    const std::size_t k = fresh_pivots.size();
    std::uint8_t* const w = fresh.row(k).data();
    const auto row = m.row(i);
    std::copy(row.begin(), row.end(), w);
    if (reduce_against(rows_, pivots_.data(), rank(), w, dim_) == dim_)
      continue;
    const std::size_t p =
        reduce_against(fresh, fresh_pivots.data(), k, w, dim_);
    if (p == dim_) continue;
    absorb(fresh, k, w, p, dim_);
    fresh_pivots.push_back(p);
  }
  return fresh_pivots.size();
}

Matrix LinearSpace::basis() const {
  std::vector<std::size_t> order(rank());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return pivots_[a] < pivots_[b];
  });
  Matrix out(rank(), dim_);
  for (std::size_t i = 0; i < order.size(); ++i)
    std::copy_n(rows_.row(order[i]).begin(), dim_, out.row(i).begin());
  return out;
}

}  // namespace thinair::gf
