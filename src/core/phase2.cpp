#include "core/phase2.h"

#include <algorithm>
#include <stdexcept>

#include "gf/encode.h"
#include "gf/kernels.h"
#include "gf/mds.h"

namespace thinair::core {

namespace {

packet::Announcement announcement_from(const gf::Matrix& rows) {
  packet::Announcement a;
  a.combinations.reserve(rows.rows());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    std::vector<packet::Term> terms;
    terms.reserve(rows.cols());
    for (std::size_t j = 0; j < rows.cols(); ++j)
      if (!rows.at(i, j).is_zero())
        terms.push_back({static_cast<std::uint32_t>(j), rows.at(i, j)});
    a.combinations.emplace_back(std::move(terms));
  }
  return a;
}

}  // namespace

Phase2Plan plan_phase2(const YPool& pool) {
  return plan_phase2(pool.size(), pool.group_secret_size());
}

Phase2Plan plan_phase2(std::size_t pool_size, std::size_t group_size) {
  Phase2Plan plan = phase2_code(pool_size, group_size);
  plan.s_announcement = announcement_from(plan.c);
  return plan;
}

Phase2Plan phase2_code(std::size_t pool_size, std::size_t group_size) {
  Phase2Plan plan;
  plan.pool_size = pool_size;
  plan.group_size = group_size;

  const std::size_t m = plan.pool_size;
  const std::size_t l = plan.group_size;
  if (l > m) throw std::invalid_argument("phase2_code: L > M");
  if (m == 0 || l == 0) {
    // No shared secret possible this round (the paper's worst case).
    plan.group_size = 0;
    plan.h = gf::Matrix(0, m);
    plan.c = gf::Matrix(0, m);
    return plan;
  }
  if (m > gf::mds::kMaxColumns)
    throw std::invalid_argument("phase2_code: pool too large for GF(2^8)");

  // H and C are the row ranges [0, M - L) and [M - L, M) of the M x M
  // Vandermonde matrix, filled in place.
  plan.h = gf::Matrix(m - l, m);
  plan.c = gf::Matrix(l, m);
  for (std::size_t i = 0; i < m - l; ++i)
    gf::mds::vandermonde_row(i, plan.h.row(i));
  for (std::size_t i = 0; i < l; ++i)
    gf::mds::vandermonde_row(m - l + i, plan.c.row(i));
  return plan;
}

std::vector<packet::ConstByteSpan> make_z_payloads(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> y_contents,
    std::size_t payload_size, packet::PayloadArena& arena) {
  return gf::encode(plan.h, y_contents, payload_size, arena);
}

std::vector<packet::ConstByteSpan> recover_all_y(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> own_y,
    std::span<const packet::ConstByteSpan> z_payloads,
    std::size_t payload_size, packet::PayloadArena& arena) {
  if (payload_size == 0)
    throw std::invalid_argument("recover_all_y: payload_size == 0");
  const std::size_t m = plan.pool_size;
  if (own_y.size() != m)
    throw std::invalid_argument("recover_all_y: own_y size != pool size");
  if (z_payloads.size() != plan.h.rows())
    throw std::invalid_argument("recover_all_y: z count mismatch");
  // Validate every broadcast z-packet, even though only the first
  // |unknown| rows feed the solve below.
  for (const packet::ConstByteSpan z : z_payloads)
    if (z.size() != payload_size)
      throw std::invalid_argument("recover_all_y: z payload size mismatch");

  std::vector<std::size_t> unknown;
  unknown.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    if (own_y[j].empty())
      unknown.push_back(j);
    else if (own_y[j].size() != payload_size)
      throw std::invalid_argument("recover_all_y: y payload size mismatch");
  }
  const std::size_t d = unknown.size();
  if (d > plan.h.rows())
    throw std::invalid_argument(
        "recover_all_y: more unknowns than z-packets (M_i < L?)");

  std::vector<packet::ConstByteSpan> y(own_y.begin(), own_y.end());
  if (d == 0) return y;

  // The repair system [H_U | r] over the first d z-rows, in the arena:
  // H_U holds H's columns at the unknown indices and
  // r_i = z_i - sum_{known j} H[i][j] * y_j = (H_U y_U)_i, the residual
  // seeded with the z-content and fused over the known y's.
  gf::Matrix a(d, d, arena);
  gf::Matrix r(d, payload_size, arena);
  for (std::size_t i = 0; i < d; ++i) {
    const std::span<const std::uint8_t> h = plan.h.row(i);
    for (std::size_t u = 0; u < d; ++u) a.row(i)[u] = h[unknown[u]];
    std::copy(z_payloads[i].begin(), z_payloads[i].end(), r.row(i).begin());
    gf::DotBatch residual(r.row(i).data(), payload_size);
    for (std::size_t j = 0; j < m; ++j)
      if (!own_y[j].empty()) residual.add(h[j], own_y[j].data());
    residual.flush();
  }

  // Gauss-Jordan: reducing H_U to the identity turns r into y_U. The
  // solution is unique, so its bytes do not depend on how it is found.
  // Columns left of c are already reduced and the pivot row is zero
  // there, so the coefficient updates start at column c.
  for (std::size_t c = 0; c < d; ++c) {
    std::size_t p = c;
    while (p < d && a.row(p)[c] == 0) ++p;
    if (p == d) throw std::logic_error("recover_all_y: repair system singular");
    if (p != c) {
      std::swap_ranges(a.row(p).begin(), a.row(p).end(), a.row(c).begin());
      std::swap_ranges(r.row(p).begin(), r.row(p).end(), r.row(c).begin());
    }
    std::uint8_t* const pivot = a.row(c).data() + c;
    const gf::GF256 inv = gf::GF256{*pivot}.inv();
    gf::mul_row(inv, pivot, pivot, d - c);
    gf::mul_row(inv, r.row(c).data(), r.row(c).data(), payload_size);
    gf::MadBatch coeffs(pivot, d - c);
    gf::MadBatch payloads(r.row(c).data(), payload_size);
    for (std::size_t i = 0; i < d; ++i) {
      if (i == c) continue;
      const std::uint8_t f = a.row(i)[c];
      coeffs.add(f, a.row(i).data() + c);
      payloads.add(f, r.row(i).data());
    }
    coeffs.flush();
    payloads.flush();
  }
  for (std::size_t u = 0; u < d; ++u) y[unknown[u]] = r.row(u);
  return y;
}

std::vector<packet::ConstByteSpan> make_s_payloads(
    const Phase2Plan& plan, std::span<const packet::ConstByteSpan> y_contents,
    std::size_t payload_size, packet::PayloadArena& arena) {
  return gf::encode(plan.c, y_contents, payload_size, arena);
}

}  // namespace thinair::core
