#include "core/protocol.h"

#include <algorithm>
#include <stdexcept>

#include "gf/encode.h"
#include "gf/kernels.h"
#include "gf/mds.h"

namespace thinair::core {

namespace {

// What every receiver step checks of its inputs: the own x-spans have the
// round's payload size, and no announced combination reaches past N.
RoundError check_public(const packet::Announcement& y_announcement,
                        std::span<const packet::ConstByteSpan> x,
                        std::size_t payload_size) {
  if (payload_size == 0) return RoundError::kPayloadSize;
  for (const packet::ConstByteSpan p : x)
    if (!p.empty() && p.size() != payload_size)
      return RoundError::kPayloadSize;
  for (const packet::Combination& combo : y_announcement.combinations)
    for (const packet::Term& t : combo.terms())
      if (t.index >= x.size()) return RoundError::kIndexOutOfRange;
  return RoundError::kNone;
}

// The terminal's L s-packets straight from its own y-packets (M spans,
// empty = unknown) and the z-contents, without recovering the unknown y's.
// With U the d unknown y-indices, the first d z-rows give H_U y_U = z' -
// H_K y_K (H_U, H_K: the first d rows of H at U and at the known indices
// K), so
//   s = C y = T z' + (C - T H') y,   T = C_U H_U^-1,
// where H' is the first d rows of H over all M columns; C - T H' is zero
// at U exactly, since T H_U = C_U. T^T solves H_U^T T^T = C_U^T: Gauss-
// Jordan on the d x (d + L) coefficient matrix [H_U^T | C_U^T] leaves
// [I | T^T]. The Vandermonde matrix is symmetric, so row u of it is the
// table row unknown[u] at columns [0, d) and [M - L, M). One fused encode
// of [C - T H' | T] over [y ; z_0..z_{d-1}] then costs L * M payload
// multiply-adds, against recover_all_y's d(M - d) + d^2 and
// make_s_payloads' L * M. It is the same linear map as those two steps, so
// the bytes match for any z, and every input is the caller's to validate.
std::vector<packet::ConstByteSpan> decode_s(
    std::size_t l, std::span<const packet::ConstByteSpan> own_y,
    std::span<const packet::ConstByteSpan> z, std::size_t payload_size,
    packet::PayloadArena& arena) {
  const std::size_t m = own_y.size();
  std::vector<std::size_t> unknown;
  unknown.reserve(m);
  for (std::size_t j = 0; j < m; ++j)
    if (own_y[j].empty()) unknown.push_back(j);
  const std::size_t d = unknown.size();

  gf::Matrix a(d, d + l, arena);
  for (std::size_t u = 0; u < d; ++u) {
    const auto v = gf::mds::vandermonde_entries(unknown[u]);
    std::copy_n(v.begin(), d, a.row(u).begin());
    std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(m - l), l,
                a.row(u).begin() + static_cast<std::ptrdiff_t>(d));
  }
  // Every leading principal minor of H_U^T is a Vandermonde determinant
  // over distinct points, so elimination in order meets no zero pivot.
  // Columns left of c are already reduced and the pivot row is zero
  // there, so the updates start at column c.
  for (std::size_t c = 0; c < d; ++c) {
    std::uint8_t* const pivot = a.row(c).data() + c;
    if (*pivot == 0) throw std::logic_error("decode_s: singular repair");
    gf::mul_row(gf::GF256{*pivot}.inv(), pivot, pivot, d + l - c);
    gf::MadBatch batch(pivot, d + l - c);
    for (std::size_t i = 0; i < d; ++i)
      if (i != c) batch.add(a.row(i)[c], a.row(i).data() + c);
  }

  // g = [C - T H' | T]: C's rows, plus T times the first d Vandermonde
  // rows, then T itself (T[i][u] = a(u, d + i)).
  gf::Matrix g(l, m + d, arena);
  for (std::size_t i = 0; i < l; ++i)
    gf::mds::vandermonde_row(m - l + i, g.row(i).first(m));
  for (std::size_t u = 0; u < d; ++u) {
    gf::MadBatch batch(gf::mds::vandermonde_entries(u).data(), m);
    for (std::size_t i = 0; i < l; ++i) {
      batch.add(a.row(u)[d + i], g.row(i).data());
      g.row(i)[m + u] = a.row(u)[d + i];
    }
  }

  std::vector<packet::ConstByteSpan> inputs;
  inputs.reserve(m + d);
  inputs.assign(own_y.begin(), own_y.end());
  inputs.insert(inputs.end(), z.begin(),
                z.begin() + static_cast<std::ptrdiff_t>(d));
  return gf::encode(g, inputs, payload_size, arena);
}

}  // namespace

std::string_view to_string(RoundError e) {
  switch (e) {
    case RoundError::kNone: return "none";
    case RoundError::kNotTerminal: return "not-terminal";
    case RoundError::kUniverseMismatch: return "universe-mismatch";
    case RoundError::kIndexOutOfRange: return "index-out-of-range";
    case RoundError::kGroupExceedsPool: return "group-exceeds-pool";
    case RoundError::kPoolTooLarge: return "pool-too-large";
    case RoundError::kZCount: return "z-count";
    case RoundError::kPayloadSize: return "payload-size";
    case RoundError::kTooFewY: return "too-few-y";
  }
  return "unknown";
}

RoundError record_report(ReceptionTable& table, packet::NodeId from,
                         const packet::ReceptionReport& report) {
  const std::vector<packet::NodeId>& receivers = table.receivers();
  if (std::find(receivers.begin(), receivers.end(), from) == receivers.end())
    return RoundError::kNotTerminal;
  if (report.universe != table.universe())
    return RoundError::kUniverseMismatch;
  for (const std::uint32_t i : report.received)
    if (i >= table.universe()) return RoundError::kIndexOutOfRange;
  table.set_received(from, report.received);
  return RoundError::kNone;
}

AliceRound alice_round(const ReceptionTable& table,
                       const EveBoundEstimator& estimator,
                       PoolStrategy strategy,
                       std::span<const packet::ConstByteSpan> x,
                       std::size_t payload_size, packet::PayloadArena& arena) {
  AliceRound r{run_phase1(table, estimator, strategy), {}, {}, {}, {}};
  r.y = all_y_contents(r.phase1.build.pool, x, payload_size, arena);
  r.plan = plan_phase2(r.phase1.build.pool);
  r.z = make_z_payloads(r.plan, r.y, payload_size, arena);
  r.s = make_s_payloads(r.plan, r.y, payload_size, arena);
  return r;
}

ReceiverOutput receiver_y(const packet::Announcement& y_announcement,
                          std::span<const packet::ConstByteSpan> x,
                          std::size_t payload_size,
                          packet::PayloadArena& arena) {
  ReceiverOutput out{check_public(y_announcement, x, payload_size), {}};
  if (out.error != RoundError::kNone) return out;
  out.payloads.resize(y_announcement.combinations.size());
  for (std::size_t j = 0; j < out.payloads.size(); ++j) {
    const packet::Combination& combo = y_announcement.combinations[j];
    const bool held = std::all_of(
        combo.terms().begin(), combo.terms().end(),
        [&](const packet::Term& t) { return !x[t.index].empty(); });
    if (held) out.payloads[j] = combo.apply(x, payload_size, arena);
  }
  return out;
}

ReceiverOutput receiver_round(const packet::Announcement& y_announcement,
                              const packet::Announcement& s_announcement,
                              std::span<const packet::ConstByteSpan> x,
                              std::span<const packet::ConstByteSpan> z,
                              std::size_t payload_size,
                              packet::PayloadArena& arena) {
  const std::size_t m = y_announcement.combinations.size();
  const std::size_t l = s_announcement.combinations.size();
  if (l > m) return {RoundError::kGroupExceedsPool, {}};
  if (l > 0 && m > gf::mds::kMaxColumns)
    return {RoundError::kPoolTooLarge, {}};
  // plan_phase2 sends no z-packets in a round without a secret.
  if (z.size() != (l == 0 ? 0 : m - l)) return {RoundError::kZCount, {}};
  for (const packet::ConstByteSpan p : z)
    if (p.size() != payload_size) return {RoundError::kPayloadSize, {}};
  if (l == 0) return {check_public(y_announcement, x, payload_size), {}};

  const ReceiverOutput own = receiver_y(y_announcement, x, payload_size, arena);
  if (own.error != RoundError::kNone) return own;
  const auto unknown =
      std::count_if(own.payloads.begin(), own.payloads.end(),
                    [](packet::ConstByteSpan y) { return y.empty(); });
  if (static_cast<std::size_t>(unknown) > m - l)
    return {RoundError::kTooFewY, {}};

  // M is the y-announcement's length and L the s-announcement's: the
  // code depends on nothing else, so this decodes Alice's exact code.
  return {RoundError::kNone, decode_s(l, own.payloads, z, payload_size, arena)};
}

}  // namespace thinair::core
