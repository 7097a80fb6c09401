// Dense GF(2^8) matrix algebra: multiplication, elimination, rank,
// inversion and solving — the machinery every protocol phase leans on.
#include "gf/matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "channel/rng.h"

namespace thinair::gf {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  channel::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m.set(i, j, GF256(rng.next_byte()));
  return m;
}

TEST(Matrix, InitializerListAndAccessors) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.at(0, 2), GF256(3));
  EXPECT_EQ(m.at(1, 0), GF256(4));
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, IdentityIsMultiplicativeNeutral) {
  const Matrix a = random_matrix(5, 5, 1);
  EXPECT_EQ(a.mul(Matrix::identity(5)), a);
  EXPECT_EQ(Matrix::identity(5).mul(a), a);
}

TEST(Matrix, MulDimensionMismatchThrows) {
  const Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a.mul(b), std::invalid_argument);
}

TEST(Matrix, MulMatchesManualComputation) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a.mul(b);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      const GF256 want = a.at(i, 0) * b.at(0, j) + a.at(i, 1) * b.at(1, j);
      EXPECT_EQ(c.at(i, j), want);
    }
}

TEST(Matrix, MulAssociates) {
  const Matrix a = random_matrix(4, 6, 2);
  const Matrix b = random_matrix(6, 3, 3);
  const Matrix c = random_matrix(3, 5, 4);
  EXPECT_EQ(a.mul(b).mul(c), a.mul(b.mul(c)));
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a = random_matrix(3, 7, 5);
  EXPECT_EQ(a.transpose().transpose(), a);
  EXPECT_EQ(a.transpose().rows(), 7u);
}

TEST(Matrix, VstackHstackShapes) {
  const Matrix a = random_matrix(2, 4, 6);
  const Matrix b = random_matrix(3, 4, 7);
  const Matrix v = a.vstack(b);
  EXPECT_EQ(v.rows(), 5u);
  EXPECT_EQ(v.at(2, 1), b.at(0, 1));

  const Matrix c = random_matrix(2, 3, 8);
  const Matrix h = a.hstack(c);
  EXPECT_EQ(h.cols(), 7u);
  EXPECT_EQ(h.at(1, 6), c.at(1, 2));
}

TEST(Matrix, VstackMismatchThrows) {
  EXPECT_THROW(Matrix(2, 3).vstack(Matrix(2, 4)), std::invalid_argument);
  EXPECT_THROW(Matrix(2, 3).hstack(Matrix(3, 3)), std::invalid_argument);
}

TEST(Matrix, SelectColumnsAndRows) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  const std::vector<std::size_t> cols{2, 0};
  const Matrix s = a.select_columns(cols);
  EXPECT_EQ(s.at(0, 0), GF256(3));
  EXPECT_EQ(s.at(1, 1), GF256(4));

  const std::vector<std::size_t> rows{1};
  const Matrix r = a.select_rows(rows);
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.at(0, 0), GF256(4));
}

TEST(Matrix, SelectOutOfRangeThrows) {
  const Matrix a(2, 2);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(a.select_columns(bad), std::out_of_range);
  EXPECT_THROW(a.select_rows(bad), std::out_of_range);
}

TEST(Matrix, RankOfIdentityAndZero) {
  EXPECT_EQ(Matrix::identity(6).rank(), 6u);
  EXPECT_EQ(Matrix::zero(4, 4).rank(), 0u);
}

TEST(Matrix, RankDetectsDependentRows) {
  Matrix m(3, 3);
  // row2 = row0 + row1.
  const Matrix base{{1, 2, 3}, {4, 5, 6}};
  for (std::size_t j = 0; j < 3; ++j) {
    m.set(0, j, base.at(0, j));
    m.set(1, j, base.at(1, j));
    m.set(2, j, base.at(0, j) + base.at(1, j));
  }
  EXPECT_EQ(m.rank(), 2u);
}

TEST(Matrix, RowReduceGivesPivots) {
  Matrix m{{0, 1, 2}, {0, 0, 3}};
  const auto pivots = m.row_reduce();
  ASSERT_EQ(pivots.size(), 2u);
  EXPECT_EQ(pivots[0], 1u);
  EXPECT_EQ(pivots[1], 2u);
  // Reduced form: pivot entries are 1, everything above/below is 0.
  EXPECT_EQ(m.at(0, 1), kOne);
  EXPECT_EQ(m.at(0, 2), kZero);
  EXPECT_EQ(m.at(1, 2), kOne);
}

TEST(Matrix, SolveUniqueSystem) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix x{{7}, {9}};
  const Matrix b = a.mul(x);
  const auto solved = a.solve(b);
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(*solved, x);
}

TEST(Matrix, SolveTallFullColumnRank) {
  // Overdetermined but consistent: 3 equations, 2 unknowns.
  const Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Matrix x{{5}, {6}};
  const Matrix b = a.mul(x);
  const auto solved = a.solve(b);
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(*solved, x);
}

TEST(Matrix, SolveInconsistentReturnsNullopt) {
  const Matrix a{{1, 0}, {1, 0}};
  const Matrix b{{1}, {2}};  // contradictory equations
  EXPECT_FALSE(a.solve(b).has_value());
}

TEST(Matrix, SolveUnderdeterminedReturnsNullopt) {
  const Matrix a{{1, 2}};  // one equation, two unknowns
  const Matrix b{{3}};
  EXPECT_FALSE(a.solve(b).has_value());
}

TEST(Matrix, InvertibleMatchesRank) {
  const Matrix id = Matrix::identity(4);
  EXPECT_TRUE(id.invertible());
  EXPECT_FALSE(Matrix::zero(4, 4).invertible());
  EXPECT_FALSE(Matrix(3, 4).invertible());
}

// Arena-backed storage: same algebra, storage carved from a
// PayloadArena; copies always re-own on the heap so only the original
// aliases the arena.
TEST(Matrix, ArenaBackedMatchesHeapBacked) {
  packet::PayloadArena arena;
  const Matrix heap = random_matrix(7, 9, 42);
  Matrix onarena(7, 9, arena);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 9; ++j) onarena.set(i, j, heap.at(i, j));
  EXPECT_EQ(onarena, heap);
  EXPECT_EQ(onarena.rank(), heap.rank());

  // A copy survives the arena being rewound.
  const Matrix copy = onarena;
  const Matrix rhs = random_matrix(9, 5, 43);
  const Matrix product = onarena.mul(rhs, arena);
  EXPECT_EQ(product, heap.mul(rhs));
  arena.reset();
  EXPECT_EQ(copy, heap);
}

TEST(Matrix, ArenaBackedRowReduceMatchesHeap) {
  packet::PayloadArena arena;
  for (std::uint64_t seed = 1; seed < 6; ++seed) {
    const Matrix heap = random_matrix(10, 14, seed);
    Matrix a(10, 14, arena);
    Matrix b = heap;
    for (std::size_t i = 0; i < 10; ++i)
      for (std::size_t j = 0; j < 14; ++j) a.set(i, j, heap.at(i, j));
    EXPECT_EQ(a.row_reduce(), b.row_reduce());
    EXPECT_EQ(a, b);
    arena.reset();
  }
}

TEST(Matrix, MoveAndAssignPreserveContents) {
  const Matrix src = random_matrix(5, 6, 77);
  Matrix moved = src;
  Matrix stolen = std::move(moved);
  EXPECT_EQ(stolen, src);
  Matrix assigned;
  assigned = stolen;
  EXPECT_EQ(assigned, src);
  assigned = std::move(stolen);
  EXPECT_EQ(assigned, src);
}

// Rows sit 64-byte aligned at a stride that is a multiple of 64, heap- or
// arena-backed, for every width; row() spans stay cols() long.
TEST(Matrix, RowsSitOnA64ByteStride) {
  packet::PayloadArena arena;
  for (const std::size_t cols : {0u, 1u, 7u, 63u, 64u, 65u, 100u, 128u, 255u}) {
    const Matrix heap = random_matrix(5, cols, cols + 1);
    const Matrix onarena(5, cols, arena);
    const Matrix copy = onarena;
    // cols rounded up to a multiple of 64.
    const std::size_t stride = (cols + 63) / 64 * 64;
    for (const Matrix* m : {&heap, &onarena, &copy}) {
      for (std::size_t r = 0; r < m->rows(); ++r) {
        EXPECT_EQ(m->row(r).size(), cols);
        if (cols == 0) continue;
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m->row(r).data()) % 64, 0u)
            << cols;
        EXPECT_EQ(static_cast<std::size_t>(m->row(r).data() -
                                           m->row(0).data()),
                  r * stride)
            << cols;
      }
    }
  }
}

// Every entry of m equals f(i, j), and m is rows x cols.
template <typename F>
void expect_entries(const Matrix& m, std::size_t rows, std::size_t cols,
                    F&& f) {
  ASSERT_EQ(m.rows(), rows);
  ASSERT_EQ(m.cols(), cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      ASSERT_EQ(m.at(i, j), f(i, j)) << "(" << i << ", " << j << ")";
}

// With padded rows, every derived matrix still holds the entries of its
// definition, heap- and arena-backed operands agree, and == compares the
// entries only (never the padding).
TEST(Matrix, PaddedRowsKeepEveryOperationEntrywise) {
  channel::Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    packet::PayloadArena arena;
    const std::size_t r = 1 + rng.next_below(9);
    const std::size_t c = 1 + rng.next_below(130);
    const std::size_t r2 = 1 + rng.next_below(9);
    const std::size_t c2 = 1 + rng.next_below(130);
    const Matrix a = random_matrix(r, c, rng.next_u64());
    Matrix on(r, c, arena);
    for (std::size_t i = 0; i < r; ++i)
      for (std::size_t j = 0; j < c; ++j) on.set(i, j, a.at(i, j));
    const auto a_at = [&](std::size_t i, std::size_t j) { return a.at(i, j); };
    expect_entries(on, r, c, a_at);
    EXPECT_EQ(on, a);

    const Matrix copy = on;
    expect_entries(copy, r, c, a_at);
    Matrix moved = Matrix(copy);
    const Matrix stolen = std::move(moved);
    expect_entries(stolen, r, c, a_at);
    Matrix changed = a;
    changed.set(r - 1, c - 1, a.at(r - 1, c - 1) + kOne);
    EXPECT_FALSE(changed == a);

    const Matrix below = random_matrix(r2, c, rng.next_u64());
    expect_entries(on.vstack(below), r + r2, c, [&](std::size_t i,
                                                     std::size_t j) {
      return i < r ? a.at(i, j) : below.at(i - r, j);
    });
    const Matrix right = random_matrix(r, c2, rng.next_u64());
    expect_entries(on.hstack(right), r, c + c2, [&](std::size_t i,
                                                     std::size_t j) {
      return j < c ? a.at(i, j) : right.at(i, j - c);
    });
    expect_entries(on.transpose(), c, r,
                   [&](std::size_t i, std::size_t j) { return a.at(j, i); });

    std::vector<std::size_t> rows_pick, cols_pick;
    for (int k = 0; k < 5; ++k) {
      rows_pick.push_back(rng.next_below(r));
      cols_pick.push_back(rng.next_below(c));
    }
    expect_entries(on.select_rows(rows_pick), rows_pick.size(), c,
                   [&](std::size_t i, std::size_t j) {
                     return a.at(rows_pick[i], j);
                   });
    expect_entries(on.select_columns(cols_pick), r, cols_pick.size(),
                   [&](std::size_t i, std::size_t j) {
                     return a.at(i, cols_pick[j]);
                   });

    const Matrix b = random_matrix(c, c2, rng.next_u64());
    const auto product = [&](std::size_t i, std::size_t j) {
      GF256 sum = kZero;
      for (std::size_t k = 0; k < c; ++k) sum += a.at(i, k) * b.at(k, j);
      return sum;
    };
    expect_entries(a.mul(b), r, c2, product);
    expect_entries(on.mul(b, arena), r, c2, product);
    EXPECT_EQ(on.mul(b, arena), a.mul(b));
  }
}

// Property sweep: for random square matrices, rank(A) == rank(A^T).
class MatrixRankSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatrixRankSweep, RankEqualsTransposeRank) {
  const Matrix a = random_matrix(8, 8, GetParam());
  EXPECT_EQ(a.rank(), a.transpose().rank());
}

TEST_P(MatrixRankSweep, MulByInvertiblePreservesRank) {
  const Matrix a = random_matrix(6, 9, GetParam() + 100);
  Matrix p = random_matrix(6, 6, GetParam() + 200);
  if (!p.invertible()) return;
  EXPECT_EQ(p.mul(a).rank(), a.rank());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixRankSweep,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

}  // namespace
}  // namespace thinair::gf
