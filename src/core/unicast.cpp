#include "core/unicast.h"

#include <algorithm>
#include <stdexcept>

#include "gf/kernels.h"

#include "analysis/eve_view.h"
#include "net/reliable.h"
#include "packet/serialize.h"

namespace thinair::core {

namespace {

// Alice's step for the baseline: phase 1's pool and y-announcement. The y
// contents wait until the round is known to distribute a secret (L > 0).
AliceRound phase1_pool(const ReceptionTable& table,
                       const EveBoundEstimator& estimator,
                       PoolStrategy strategy,
                       std::span<const packet::ConstByteSpan> /*x*/,
                       std::size_t /*payload_size*/,
                       packet::PayloadArena& /*arena*/) {
  return {run_phase1(table, estimator, strategy), {}, {}, {}, {}};
}

}  // namespace

RoundOutcome UnicastSession::run_round(packet::NodeId alice,
                                       packet::RoundId round,
                                       SessionResult& result) {
  const std::size_t n = config_.x_packets_per_round;
  const std::size_t payload = config_.payload_bytes;

  packet::PayloadArena& arena = this->arena();

  // Phase 1 is identical to the group algorithm.
  const auto [ctx, a] = open(alice, round, phase1_pool);
  const YPool& pool = a.phase1.build.pool;

  packet::encode_into(a.phase1.announcement, scratch_pkt_.payload);
  broadcast(alice, round, packet::Kind::kAnnouncement, 0,
            net::TrafficClass::kControl);

  // The group secret is L y-packets known to the first receiver; every
  // other receiver gets it one-time-padded with its own pair-wise secret.
  // Pads must be *disjoint pool rows*: reusing a y-packet in two pads (or
  // in a pad and the secret) hands Eve linear relations between
  // ciphertexts. Rows are therefore assigned exclusively, each to the
  // audience member with the thinnest assignment so far, and L is the
  // minimum number of rows any receiver ends up owning — the operational
  // price the unicast baseline pays for not coding (its Figure-1 curve is
  // an upper bound that assumes fully independent pair-wise secrets).
  const gf::Matrix g = pool.rows(arena);
  std::vector<std::vector<std::size_t>> assigned(ctx.receivers.size());
  for (std::size_t row = 0; row < pool.size(); ++row) {
    std::size_t best = ctx.receivers.size();
    for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
      if (!pool.entries()[row].audience.contains(ctx.receivers[ri])) continue;
      if (best == ctx.receivers.size() ||
          assigned[ri].size() < assigned[best].size())
        best = ri;
    }
    if (best != ctx.receivers.size()) assigned[best].push_back(row);
  }
  // reset() guarantees >= 2 terminals, so there is at least one receiver.
  std::size_t l = pool.size();
  for (const auto& rows : assigned) l = std::min(l, rows.size());

  RoundOutcome outcome = outcome_of(ctx, pool);
  outcome.group_packets = l;
  outcome.secret_bits = l * payload * 8;
  outcome.data_packets = n + (ctx.receivers.size() - 1) * l;

  analysis::EveView eve(n);
  eve.observe_x(ctx.eve_indices);
  if (l == 0) {
    outcome.leakage = analysis::compute_leakage(eve, gf::Matrix(0, n));
    return outcome;
  }

  const std::vector<packet::ConstByteSpan> y =
      all_y_contents(pool, ctx.x_payloads, payload, arena);
  const auto secret_indices_of = [&](std::size_t ri) {
    auto rows = assigned[ri];
    rows.resize(l);  // first L exclusively-assigned rows
    return rows;
  };

  // The secret: the first receiver's rows.
  const std::vector<std::size_t> group_idx = secret_indices_of(0);
  const gf::Matrix secret_rows = g.select_rows(group_idx);

  // Unicast the padded secret to receivers 1..n-2 (receiver 0 holds it
  // already). Ciphertext c_j = s_j + pad_j is public: feed it to Eve.
  for (std::size_t ri = 1; ri < ctx.receivers.size(); ++ri) {
    const std::vector<std::size_t> pad_idx = secret_indices_of(ri);
    gf::Matrix cipher_rows(l, n);
    for (std::size_t j = 0; j < l; ++j) {
      packet::Payload body(y[group_idx[j]].begin(), y[group_idx[j]].end());
      gf::xor_into(y[pad_idx[j]].data(), body.data(), payload);

      for (std::size_t c = 0; c < n; ++c)
        cipher_rows.set(j, c,
                        secret_rows.at(j, c) + g.at(pad_idx[j], c));

      packet::Packet pkt{
          .kind = packet::Kind::kCipher,
          .source = alice,
          .round = round,
          .seq = packet::PacketSeq{static_cast<std::uint32_t>(j)},
          .payload = std::move(body)};
      net::reliable_unicast(*medium_, alice, ctx.receivers[ri], pkt,
                            net::TrafficClass::kCipher);
    }
    eve.observe_combinations(cipher_rows);
  }

  // Verification: each receiver rebuilds its y-packets from the public
  // announcement as a live client does (the core's receiver_y). Stripping
  // its pad from the ciphertext s + pad yields the secret exactly when its
  // pad equals Alice's. Per-receiver scratch is rewound once checked.
  for (std::size_t ri = 1; ri < ctx.receivers.size(); ++ri) {
    const packet::PayloadArena::Mark mark = arena.mark();
    const ReceiverOutput rx = receiver_y(a.phase1.announcement,
                                         ctx.rx_payloads[ri], payload, arena);
    if (rx.error != RoundError::kNone)
      throw std::logic_error("UnicastSession: receiver step failed");
    for (const std::size_t row : secret_indices_of(ri)) {
      const packet::ConstByteSpan pad = rx.payloads[row];
      if (pad.empty())
        throw std::logic_error("UnicastSession: receiver lacks its pad");
      if (!std::equal(pad.begin(), pad.end(), y[row].begin(), y[row].end()))
        throw std::logic_error(
            "UnicastSession: receiver decoded a different secret");
    }
    arena.rewind(mark);
  }

  outcome.leakage = analysis::compute_leakage(eve, secret_rows);
  for (const std::size_t j : group_idx)
    result.secret.insert(result.secret.end(), y[j].begin(), y[j].end());
  return outcome;
}

}  // namespace thinair::core
