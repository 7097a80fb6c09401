// Incremental row-space maintenance — the engine of the secrecy analysis.
#include "gf/linear_space.h"

#include <gtest/gtest.h>

#include <vector>

#include "gf/mds.h"

namespace thinair::gf {
namespace {

std::vector<std::uint8_t> vec(std::initializer_list<unsigned> vs) {
  std::vector<std::uint8_t> out;
  for (unsigned v : vs) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(LinearSpace, StartsEmpty) {
  const LinearSpace s(5);
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.dim(), 5u);
}

TEST(LinearSpace, InsertIndependentGrowsRank) {
  LinearSpace s(3);
  EXPECT_TRUE(s.insert(vec({1, 0, 0})));
  EXPECT_TRUE(s.insert(vec({0, 1, 0})));
  EXPECT_EQ(s.rank(), 2u);
}

TEST(LinearSpace, InsertDependentReturnsFalse) {
  LinearSpace s(3);
  EXPECT_TRUE(s.insert(vec({1, 2, 3})));
  EXPECT_TRUE(s.insert(vec({0, 1, 1})));
  // 1*(1,2,3) + 2*(0,1,1): over GF(2^8), 2*(0,1,1) = (0,2,2), sum (1,0,1).
  EXPECT_FALSE(s.insert(vec({1, 0, 1})));
  EXPECT_EQ(s.rank(), 2u);
}

TEST(LinearSpace, ZeroVectorNeverGrows) {
  LinearSpace s(4);
  EXPECT_FALSE(s.insert(vec({0, 0, 0, 0})));
}

TEST(LinearSpace, WrongLengthThrows) {
  LinearSpace s(3);
  EXPECT_THROW((void)s.insert(vec({1, 2})), std::invalid_argument);
  EXPECT_THROW((void)s.contains(vec({1, 2, 3, 4})), std::invalid_argument);
}

TEST(LinearSpace, InsertUnitAndContains) {
  LinearSpace s(4);
  EXPECT_TRUE(s.insert_unit(2));
  EXPECT_TRUE(s.contains(vec({0, 0, 7, 0})));   // scaled unit
  EXPECT_FALSE(s.contains(vec({1, 0, 0, 0})));
  EXPECT_THROW((void)s.insert_unit(9), std::out_of_range);
}

TEST(LinearSpace, RankNeverExceedsDim) {
  LinearSpace s(3);
  const Matrix m = mds::vandermonde(3, 3).vstack(mds::cauchy(2, 3));
  s.insert_rows(m);
  EXPECT_EQ(s.rank(), 3u);
}

TEST(LinearSpace, InsertRowsCountsIndependentOnes) {
  LinearSpace s(4);
  Matrix m(3, 4);
  m.set(0, 0, kOne);
  m.set(1, 0, GF256(3));  // dependent on row 0
  m.set(2, 1, kOne);
  EXPECT_EQ(s.insert_rows(m), 2u);
}

TEST(LinearSpace, ResidualRankIsEquivocation) {
  LinearSpace s(4);
  EXPECT_TRUE(s.insert_unit(0));
  Matrix secret(2, 4);
  secret.set(0, 0, kOne);  // fully known given unit 0
  secret.set(1, 3, kOne);  // unknown
  EXPECT_EQ(s.residual_rank(secret), 1u);
  // Residual queries must not mutate the space.
  EXPECT_EQ(s.rank(), 1u);
}

TEST(LinearSpace, ResidualRankZeroWhenContained) {
  LinearSpace s(3);
  EXPECT_TRUE(s.insert(vec({1, 1, 0})));
  EXPECT_TRUE(s.insert(vec({0, 1, 1})));
  Matrix m(1, 3);
  m.set(0, 0, kOne);
  m.set(0, 2, kOne);  // (1,0,1) = (1,1,0)+(0,1,1)
  EXPECT_EQ(s.residual_rank(m), 0u);
}

TEST(LinearSpace, BasisIsRowReducedAndSpansInserted) {
  LinearSpace s(4);
  EXPECT_TRUE(s.insert(vec({2, 4, 6, 8})));
  EXPECT_TRUE(s.insert(vec({0, 0, 5, 5})));
  const Matrix b = s.basis();
  EXPECT_EQ(b.rows(), 2u);
  EXPECT_TRUE(s.contains(vec({2, 4, 6, 8})));
  EXPECT_TRUE(s.contains(vec({0, 0, 5, 5})));
  // Basis rows are normalised: leading entries are 1.
  EXPECT_EQ(b.at(0, 0), kOne);
  EXPECT_EQ(b.at(1, 2), kOne);
}

// Regression for the shared gather-path elimination (reduce() now batches
// basis rows through dot_multi, reading every coefficient up front):
// inserting rows dependent on the existing basis must never grow it, in
// any insertion order, including rows that mix many basis rows at once.
TEST(LinearSpace, DependentInsertsNeverGrowBasis) {
  const std::size_t dim = 24;
  const Matrix g = mds::vandermonde(10, dim);
  LinearSpace s(dim);
  EXPECT_EQ(s.insert_rows(g), 10u);

  // Every GF(2^8)-combination of basis rows reduces to zero — try dense
  // combinations touching all 10 rows (the fused path flushes two full
  // kMaxFusedRows blocks here), sparse ones, and scaled single rows.
  for (unsigned trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> v(dim, 0);
    for (std::size_t r = 0; r < g.rows(); ++r) {
      const auto c = GF256(static_cast<std::uint8_t>(
          (trial * 37 + r * 11 + 1) % 256));
      if (trial % 3 == 1 && r % 2 == 0) continue;  // sparse mixes
      for (std::size_t j = 0; j < dim; ++j)
        v[j] = (GF256(v[j]) + c * g.at(r, j)).value();
    }
    EXPECT_FALSE(s.insert(v)) << "trial " << trial;
    EXPECT_EQ(s.rank(), 10u);
  }
  // The basis stays fully reduced: re-inserting its own rows is a no-op.
  const Matrix b = s.basis();
  for (std::size_t i = 0; i < b.rows(); ++i) EXPECT_FALSE(s.insert(b.row(i)));
}

// Rank queries must be observably side-effect-free: residual_rank and
// contains leave basis bytes, rank and pivot structure untouched.
TEST(LinearSpace, RankQueriesAreSideEffectFree) {
  const std::size_t dim = 16;
  LinearSpace s(dim);
  s.insert_rows(mds::vandermonde(5, dim));
  const Matrix before = s.basis();

  const Matrix probe = mds::cauchy(7, dim);
  const std::size_t r1 = s.residual_rank(probe);
  const std::size_t r2 = s.residual_rank(probe);
  EXPECT_EQ(r1, r2);  // repeatable
  EXPECT_EQ(r1, before.vstack(probe).rank() - before.rows());
  (void)s.contains(probe.row(0));
  EXPECT_EQ(s.rank(), 5u);
  EXPECT_EQ(s.basis(), before);

  // residual_rank caps at dim - rank regardless of how many probe rows
  // arrive (the fresh-candidate elimination half of the shared path).
  const Matrix wide = mds::vandermonde(dim, dim);
  EXPECT_EQ(s.residual_rank(wide), dim - 5u);
  EXPECT_EQ(s.basis(), before);
}

// Cross-check the gather-based elimination against dense rank: for
// random row sets, rank(space) computed incrementally must equal
// Matrix::rank of the stacked rows, and residual_rank must equal
// rank([basis; m]) - rank(basis).
TEST(LinearSpace, AgreesWithDenseRankArithmetic) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t dim = 20;
    Matrix rows(12, dim);
    // Deterministic pseudo-random fill with plenty of dependent rows.
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return static_cast<std::uint8_t>(state >> 32);
    };
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      if (i >= 6 && next() % 2 == 0) {
        // Copy a scaled earlier row: guaranteed dependent.
        const GF256 c(static_cast<std::uint8_t>(next() | 1));
        for (std::size_t j = 0; j < dim; ++j)
          rows.set(i, j, c * rows.at(i % 6, j));
        continue;
      }
      for (std::size_t j = 0; j < dim; ++j)
        rows.set(i, j, GF256(next() % 4 == 0 ? next() : 0));
    }
    LinearSpace s(dim);
    s.insert_rows(rows);
    EXPECT_EQ(s.rank(), rows.rank()) << "seed " << seed;

    const Matrix probe = mds::vandermonde(5, dim);
    const std::size_t expect =
        s.basis().vstack(probe).rank() - s.rank();
    EXPECT_EQ(s.residual_rank(probe), expect) << "seed " << seed;
  }
}

// insert_unit skips elimination when no basis row touches the column. Over
// random interleavings of unit and dense inserts it must leave exactly
// the basis, rank and return value that inserting the dense unit row does,
// on both the untouched-column and the touched-column branch.
TEST(LinearSpace, InsertUnitMatchesDenseUnitInsert) {
  std::size_t untouched = 0, touched = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::size_t dim = 3 + seed % 14;
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ull;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return static_cast<std::uint32_t>(state >> 32);
    };
    LinearSpace fast(dim), dense(dim);
    for (std::size_t step = 0; step < 2 * dim; ++step) {
      if (next() % 3 == 0) {
        // A sparse dense row, so some columns stay untouched for a while.
        std::vector<std::uint8_t> row(dim, 0);
        for (auto& c : row)
          if (next() % 4 == 0) c = static_cast<std::uint8_t>(next());
        EXPECT_EQ(fast.insert(row), dense.insert(row));
      } else {
        const std::size_t index = next() % dim;
        const Matrix before = fast.basis();
        bool column_zero = true;
        for (std::size_t r = 0; r < before.rows(); ++r)
          if (before.at(r, index) != GF256(0)) column_zero = false;
        ++(column_zero ? untouched : touched);
        std::vector<std::uint8_t> unit(dim, 0);
        unit[index] = 1;
        EXPECT_EQ(fast.insert_unit(index), dense.insert(unit))
            << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(fast.rank(), dense.rank()) << "seed " << seed;
      ASSERT_EQ(fast.basis(), dense.basis())
          << "seed " << seed << " step " << step;
    }
  }
  EXPECT_GT(untouched, 50u);
  EXPECT_GT(touched, 50u);
}

// Property: inserting the rows of an MDS generator one by one grows rank
// by exactly one each time (they are always independent).
class MdsInsertSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MdsInsertSweep, GeneratorRowsAllIndependent) {
  const std::size_t k = GetParam();
  const Matrix g = mds::vandermonde(k, 10);
  LinearSpace s(10);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(s.insert(g.row(i)));
    EXPECT_EQ(s.rank(), i + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, MdsInsertSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 10u));

}  // namespace
}  // namespace thinair::gf
