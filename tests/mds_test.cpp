// MDS constructions: the any-k-columns-invertible property is the entire
// security and repair foundation of the y/z/s constructions.
#include "gf/mds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

namespace thinair::gf::mds {
namespace {

TEST(Mds, VandermondeShapeAndFirstRow) {
  const Matrix g = vandermonde(3, 7);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.cols(), 7u);
  for (std::size_t j = 0; j < 7; ++j) EXPECT_EQ(g.at(0, j), kOne);
  // Second row holds the evaluation points alpha^j.
  for (std::size_t j = 0; j < 7; ++j)
    EXPECT_EQ(g.at(1, j), GF256::alpha_pow(static_cast<unsigned>(j)));
}

TEST(Mds, VandermondeEntriesArePowersOfThePoints) {
  // Entry (i, j) = (alpha^j)^i, by repeated multiplication, over the full
  // 255 x 255 range where the exponent i*j wraps mod 255 many times.
  const Matrix g = vandermonde(255, 255);
  for (std::size_t j = 0; j < 255; ++j) {
    const GF256 x = GF256::alpha_pow(static_cast<unsigned>(j));
    GF256 p = kOne;
    for (std::size_t i = 0; i < 255; ++i) {
      ASSERT_EQ(g.at(i, j), p) << "i=" << i << " j=" << j;
      p = p * x;
    }
  }
}

// The table-driven rows against the exponent-stepping definition
// (entry j = alpha^(i*j mod 255), the exponent growing by i per column),
// for every row index below 510 — so rows 255..509 must repeat rows
// 0..254 — and every length up to 255. The table row is also the column.
TEST(Mds, VandermondeRowMatchesExponentSteppingForEveryRowAndLength) {
  std::array<std::uint8_t, kMaxColumns> want{};
  std::array<std::uint8_t, kMaxColumns> got{};
  for (std::size_t i = 0; i < 2 * kMaxColumns; ++i) {
    unsigned e = 0;
    for (std::uint8_t& entry : want) {
      entry = GF256::alpha_pow(e).value();
      e = (e + static_cast<unsigned>(i % 255)) % 255;
    }
    const auto entries = vandermonde_entries(i);
    ASSERT_TRUE(std::equal(entries.begin(), entries.end(), want.begin()))
        << "i=" << i;
    for (std::size_t n = 0; n <= kMaxColumns; ++n) {
      got.fill(0xA5);
      vandermonde_row(i, std::span(got).first(n));
      ASSERT_TRUE(std::equal(got.begin(), got.begin() + n, want.begin()))
          << "i=" << i << " n=" << n;
      ASSERT_TRUE(std::all_of(got.begin() + n, got.end(),
                              [](std::uint8_t b) { return b == 0xA5; }))
          << "i=" << i << " n=" << n;  // nothing past the span is written
    }
    for (std::size_t j = 0; j < kMaxColumns; ++j)
      ASSERT_EQ(vandermonde_entries(j)[i % kMaxColumns], want[j]);
  }
}

TEST(Mds, VandermondePreconditions) {
  EXPECT_THROW(vandermonde(5, 3), std::invalid_argument);
  EXPECT_THROW(vandermonde(1, 256), std::invalid_argument);
  EXPECT_NO_THROW(vandermonde(255, 255));
  std::array<std::uint8_t, 256> too_wide{};
  EXPECT_THROW(vandermonde_row(1, too_wide), std::invalid_argument);
}

TEST(Mds, VandermondeSquareInvertible) {
  for (std::size_t n : {1u, 2u, 5u, 17u, 64u}) {
    EXPECT_TRUE(vandermonde(n, n).invertible()) << "n=" << n;
  }
}

TEST(Mds, CauchyEverySquareSubmatrixInvertible) {
  const Matrix g = cauchy(3, 5);
  // All 1x1, plus sampled 2x2 and 3x3 submatrices must be invertible —
  // the stronger-than-MDS Cauchy property.
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_FALSE(g.at(i, j).is_zero());
  for (std::size_t r1 = 0; r1 < 3; ++r1)
    for (std::size_t r2 = r1 + 1; r2 < 3; ++r2)
      for (std::size_t c1 = 0; c1 < 5; ++c1)
        for (std::size_t c2 = c1 + 1; c2 < 5; ++c2) {
          const std::vector<std::size_t> rows{r1, r2}, cols{c1, c2};
          EXPECT_TRUE(g.select_rows(rows).select_columns(cols).invertible());
        }
}

TEST(Mds, CauchyPrecondition) {
  EXPECT_THROW(cauchy(200, 100), std::invalid_argument);
  EXPECT_NO_THROW(cauchy(128, 128));
}

TEST(Mds, SystematicFormHasIdentityPrefix) {
  const Matrix g = systematic(3, 6);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(g.at(i, j), i == j ? kOne : kZero);
}

TEST(Mds, IsMdsAcceptsVandermondeRejectsCorrupted) {
  const Matrix good = vandermonde(3, 6);
  EXPECT_TRUE(is_mds(good));

  Matrix bad = good;
  // Duplicate a column: those 3 columns can no longer be independent.
  for (std::size_t i = 0; i < 3; ++i) bad.set(i, 1, bad.at(i, 0));
  EXPECT_FALSE(is_mds(bad));
}

TEST(Mds, SystematicIsStillMds) { EXPECT_TRUE(is_mds(systematic(3, 7))); }

// The property phase 1 consumes: ANY k columns of the k x n generator are
// invertible, i.e. an adversary missing any n-k inputs learns nothing and
// a decoder holding any k inputs can reconstruct.
class AnyColumnsSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(AnyColumnsSweep, EveryKColumnSubsetInvertible) {
  const auto [k, n] = GetParam();
  EXPECT_TRUE(is_mds(vandermonde(k, n))) << "k=" << k << " n=" << n;
}

TEST_P(AnyColumnsSweep, CauchyIsAlsoMds) {
  const auto [k, n] = GetParam();
  EXPECT_TRUE(is_mds(cauchy(k, n))) << "k=" << k << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    SmallCodes, AnyColumnsSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 8},
                      std::pair<std::size_t, std::size_t>{2, 6},
                      std::pair<std::size_t, std::size_t>{2, 12},
                      std::pair<std::size_t, std::size_t>{3, 8},
                      std::pair<std::size_t, std::size_t>{4, 8},
                      std::pair<std::size_t, std::size_t>{5, 7},
                      std::pair<std::size_t, std::size_t>{6, 6}));

// Consecutive-row Vandermonde blocks (rows 0..r-1) restricted to any r
// columns stay invertible — the z-repair argument in phase 2.
TEST(Mds, TopRowsAnyColumnsInvertible) {
  const Matrix v = vandermonde(9, 9);
  for (std::size_t r = 1; r <= 4; ++r) {
    std::vector<std::size_t> rows(r);
    for (std::size_t i = 0; i < r; ++i) rows[i] = i;
    const Matrix h = v.select_rows(rows);
    // Sample several r-column subsets.
    const std::vector<std::vector<std::size_t>> col_sets{
        {0, 1, 2, 3}, {5, 6, 7, 8}, {0, 2, 4, 8}, {1, 3, 5, 7}};
    for (const auto& cols : col_sets) {
      const std::vector<std::size_t> use(cols.begin(),
                                         cols.begin() + static_cast<long>(r));
      EXPECT_EQ(h.select_columns(use).rank(), r);
    }
  }
}

}  // namespace
}  // namespace thinair::gf::mds
