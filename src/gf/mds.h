#pragma once
// Maximum Distance Separable (MDS) code constructions over GF(2^8).
//
// The paper derives its y-, z- and s-packets from MDS codes [10]: the
// property actually consumed by the protocol is that *any* k columns of a
// k x n generator matrix form an invertible k x k matrix. Consequences:
//  - privacy amplification (y- and s-packets): if the adversary misses at
//    least k of the n combined inputs, the k outputs are jointly uniform
//    from her point of view;
//  - erasure repair (z-packets): a receiver that already knows all but
//    d <= k of the inputs can recover them from any d of the k outputs.
//
// Two classic constructions are provided: Vandermonde matrices (rows are
// powers of distinct evaluation points) and Cauchy matrices. Both are MDS
// for any k <= n <= 255 over GF(2^8). Every Vandermonde entry the protocol
// uses is read from one 255 x 255 table built at compile time (as
// gf256.h's exp/log tables are), so a row costs one copy.

#include <cstddef>
#include <cstdint>
#include <span>

#include "gf/matrix.h"

namespace thinair::gf::mds {

/// Maximum number of columns (distinct nonzero evaluation points) any of
/// these constructions supports over GF(2^8).
inline constexpr std::size_t kMaxColumns = 255;

/// k x n Vandermonde generator: entry (i, j) = alpha_j^i where
/// alpha_j = alpha^j are distinct nonzero points. Any k columns are
/// linearly independent. Requires k <= n <= 255.
[[nodiscard]] Matrix vandermonde(std::size_t k, std::size_t n);

/// Row i of the 255 x 255 Vandermonde matrix: entry j = alpha^(i*j mod
/// 255), so row i equals row i mod 255. The matrix is symmetric, so the
/// row is also column i. Read from one table built at compile time; the
/// one place the generator entries are defined.
[[nodiscard]] std::span<const std::uint8_t, kMaxColumns> vandermonde_entries(
    std::size_t i);

/// Row i of every Vandermonde generator with out.size() columns, copied
/// into `out`: the first out.size() entries of vandermonde_entries(i), the
/// entries vandermonde(k, n) holds in row i for any k > i. Callers that
/// need only some rows (the pool's per-class generators, phase 2's H and
/// C) fill them without building the matrix. Requires out.size() <= 255.
void vandermonde_row(std::size_t i, std::span<std::uint8_t> out);

/// k x n Cauchy generator: entry (i, j) = 1 / (x_i + y_j) with all
/// x_i, y_j distinct. Every square submatrix (not just k x k) is
/// invertible. Requires k + n <= 256.
[[nodiscard]] Matrix cauchy(std::size_t k, std::size_t n);

/// Systematic form [I_k | P] of the Vandermonde code: the row space is
/// unchanged, so the any-k-columns property is preserved. Requires
/// k <= n <= 255.
[[nodiscard]] Matrix systematic(std::size_t k, std::size_t n);

/// Exhaustively verify that every k-column subset of g (k = g.rows()) is
/// invertible. Exponential in the worst case; intended for tests with
/// small dimensions.
[[nodiscard]] bool is_mds(const Matrix& g);

}  // namespace thinair::gf::mds
