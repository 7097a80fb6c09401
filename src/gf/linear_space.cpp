#include "gf/linear_space.h"

#include <algorithm>
#include <stdexcept>

#include "gf/kernels.h"

namespace thinair::gf {

std::size_t LinearSpace::reduce(std::vector<std::uint8_t>& v) const {
  // Fused gather: v is the shared output, blocks of kMaxFusedRows basis
  // rows the inputs. Reading every coefficient v[pivot] up front (rather
  // than interleaved with the eliminations) is sound because the basis is
  // fully reduced — each basis row is zero at every *other* basis row's
  // pivot, so eliminating with row b never changes v at another row's
  // pivot column. This is the one elimination loop behind insert(),
  // contains() and residual_rank()'s fixed-basis phase.
  DotBatch batch(v.data(), dim_);
  for (std::size_t b = 0; b < basis_.size(); ++b)
    batch.add(v[pivots_[b]], basis_[b].data());
  batch.flush();
  for (std::size_t i = 0; i < dim_; ++i)
    if (v[i] != 0) return i;
  return dim_;
}

bool LinearSpace::insert(std::span<const std::uint8_t> v) {
  if (v.size() != dim_) throw std::invalid_argument("LinearSpace: bad length");
  return insert_owned({v.begin(), v.end()});
}

bool LinearSpace::insert_owned(std::vector<std::uint8_t> w) {
  const std::size_t pivot = reduce(w);
  if (pivot == dim_) return false;
  mul_row(GF256{w[pivot]}.inv(), w.data(), w.data(), dim_);
  // Back-substitute into existing rows to stay fully reduced — fused: the
  // new row is the shared input, batches of kMaxFusedRows basis rows the
  // outputs.
  MadBatch batch(w.data(), dim_);
  for (std::size_t b = 0; b < basis_.size(); ++b)
    batch.add(basis_[b][pivot], basis_[b].data());
  batch.flush();
  insert_reduced(pivot, std::move(w));
  return true;
}

void LinearSpace::insert_reduced(std::size_t pivot,
                                 std::vector<std::uint8_t> row) {
  const auto pos = std::lower_bound(pivots_.begin(), pivots_.end(), pivot);
  basis_.insert(basis_.begin() + (pos - pivots_.begin()), std::move(row));
  pivots_.insert(pos, pivot);
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
  std::vector<std::uint8_t> v(dim_, 0);
  v[index] = 1;
  // When no basis row touches column `index`, e_index is already reduced
  // (and `index` is no pivot) and back-substitution would be a no-op:
  // O(rank) reads instead of the O(rank * dim) general path.
  const bool touched = std::any_of(
      basis_.begin(), basis_.end(),
      [index](const auto& row) { return row[index] != 0; });
  if (touched) return insert_owned(std::move(v));
  insert_reduced(index, std::move(v));
  return true;
}

bool LinearSpace::contains(std::span<const std::uint8_t> v) const {
  if (v.size() != dim_) throw std::invalid_argument("LinearSpace: bad length");
  std::vector<std::uint8_t> w(v.begin(), v.end());
  return reduce(w) == dim_;
}

std::size_t LinearSpace::residual_rank(const Matrix& m) const {
  // Rank counting only — no copy of the basis, no normalisation of the
  // probe rows beyond what elimination needs. Each candidate row is
  // reduced against the fixed basis, then against the previously accepted
  // candidates (kept normalised and sorted by pivot; rows are zero before
  // their pivot and zero at every fixed-basis pivot, so one monotone walk
  // eliminates every matching pivot).
  if (m.cols() != dim_)
    throw std::invalid_argument("LinearSpace: matrix width");
  std::vector<std::vector<std::uint8_t>> fresh;  // sorted by pivot
  std::vector<std::size_t> fresh_pivots;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const auto row = m.row(i);
    std::vector<std::uint8_t> w(row.begin(), row.end());
    std::size_t p = reduce(w);
    for (std::size_t b = 0; b < fresh.size() && p < dim_; ++b) {
      if (fresh_pivots[b] < p) continue;
      if (fresh_pivots[b] > p) break;  // nothing can clear column p
      axpy(GF256{w[p]}, fresh[b].data(), w.data(), dim_);
      while (p < dim_ && w[p] == 0) ++p;
    }
    if (p == dim_) continue;
    mul_row(GF256{w[p]}.inv(), w.data(), w.data(), dim_);
    const auto pos =
        std::lower_bound(fresh_pivots.begin(), fresh_pivots.end(), p);
    const auto idx = static_cast<std::size_t>(pos - fresh_pivots.begin());
    fresh_pivots.insert(pos, p);
    fresh.insert(fresh.begin() + static_cast<std::ptrdiff_t>(idx),
                 std::move(w));
  }
  return fresh.size();
}

Matrix LinearSpace::basis() const {
  Matrix out(basis_.size(), dim_);
  for (std::size_t i = 0; i < basis_.size(); ++i)
    std::copy(basis_[i].begin(), basis_[i].end(), out.row(i).begin());
  return out;
}

}  // namespace thinair::gf
