#include "core/session.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "analysis/eve_view.h"
#include "net/reliable.h"
#include "packet/serialize.h"

namespace thinair::core {

double SessionResult::reliability() const {
  std::size_t total = 0;
  std::size_t hidden = 0;
  for (const RoundOutcome& r : rounds) {
    total += r.leakage.secret_dims;
    hidden += r.leakage.hidden_dims;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(hidden) / static_cast<double>(total);
}

double SessionResult::efficiency() const {
  const std::size_t bits = ledger.total_bits();
  return bits == 0 ? 0.0
                   : static_cast<double>(secret_bits()) /
                         static_cast<double>(bits);
}

double SessionResult::data_efficiency(std::size_t payload_bytes) const {
  std::size_t packets = 0;
  for (const RoundOutcome& r : rounds) packets += r.data_packets;
  const std::size_t bits = packets * payload_bytes * 8;
  return bits == 0 ? 0.0
                   : static_cast<double>(secret_bits()) /
                         static_cast<double>(bits);
}

double SessionResult::secret_rate_bps() const {
  return duration_s <= 0.0
             ? 0.0
             : static_cast<double>(secret_bits()) / duration_s;
}

SimSession::SimSession(net::Medium& medium, SessionConfig config)
    : medium_(&medium) {
  reset(medium, std::move(config));
}

void SimSession::reset(net::Medium& medium, SessionConfig config) {
  if (medium.terminals().size() < 2)
    throw std::invalid_argument("session: need >= 2 terminals");
  if (config.x_packets_per_round == 0)
    throw std::invalid_argument("session: N == 0");
  if (config.payload_bytes == 0)
    throw std::invalid_argument("session: empty payloads");
  medium_ = &medium;
  config_ = std::move(config);
  next_round_ = 0;
  // Keep the owned arena's blocks warm for the next lifecycle, but apply
  // the watermark policy so one pathological session cannot pin its peak.
  owned_arena_.reset();
  owned_arena_.trim_to_watermark();
}

SessionResult SimSession::run() {
  const auto terminals = medium_->terminals();
  const std::size_t rounds =
      config_.rounds == 0 ? terminals.size() : config_.rounds;

  SessionResult result;
  const net::Ledger ledger_before = medium_->ledger();
  const double time_before = medium_->now();

  for (std::size_t r = 0; r < rounds; ++r) {
    const packet::NodeId alice =
        config_.rotate_alice ? terminals[r % terminals.size()] : terminals[0];
    result.rounds.push_back(
        run_round(alice, packet::RoundId{next_round_++}, result));
  }

  result.ledger = medium_->ledger().since(ledger_before);
  result.duration_s = medium_->now() - time_before;
  return result;
}

SimSession::Opened SimSession::open(packet::NodeId alice,
                                    packet::RoundId round,
                                    decltype(&alice_round) step) {
  // All round payloads live in the arena; everything a later round needs
  // is copied out (the secret bytes, the outcome counters), so the round
  // boundary is the natural reclamation point.
  packet::PayloadArena& arena = this->arena();
  arena.reset();
  RoundContext ctx =
      open_round(*medium_, alice, round, config_.x_packets_per_round,
                 config_.payload_bytes, arena);
  receiver_cells_.clear();
  if (!config_.estimator.occupied_cells.empty())
    for (packet::NodeId r : ctx.receivers)
      receiver_cells_.push_back(config_.estimator.occupied_cells.at(r.value));
  // The estimator reads ctx.table, so it must not outlive this scope.
  AliceRound a =
      step(ctx.table,
           *build_estimator(config_.estimator, ctx.table, ctx.eve_indices,
                            ctx.slot_of, receiver_cells_),
           config_.pool_strategy, ctx.x_payloads, config_.payload_bytes,
           arena);
  return {std::move(ctx), std::move(a)};
}

void SimSession::broadcast(packet::NodeId alice, packet::RoundId round,
                           packet::Kind kind, std::uint32_t seq,
                           net::TrafficClass cls) {
  scratch_pkt_.kind = kind;
  scratch_pkt_.source = alice;
  scratch_pkt_.round = round;
  scratch_pkt_.seq = packet::PacketSeq{seq};
  net::reliable_broadcast(*medium_, alice, scratch_pkt_, cls);
}

RoundOutcome SimSession::outcome_of(const RoundContext& ctx,
                                    const YPool& pool) const {
  RoundOutcome outcome;
  outcome.alice = ctx.alice;
  outcome.universe = config_.x_packets_per_round;
  for (packet::NodeId r : ctx.receivers)
    outcome.pairwise_size.push_back(pool.count_for(r));
  outcome.pool_size = pool.size();
  return outcome;
}

RoundOutcome GroupSecretSession::run_round(packet::NodeId alice,
                                           packet::RoundId round,
                                           SessionResult& result) {
  const std::size_t n = config_.x_packets_per_round;
  const std::size_t payload = config_.payload_bytes;
  packet::PayloadArena& arena = this->arena();

  const auto [ctx, a] = open(alice, round, alice_round);
  const YPool& pool = a.phase1.build.pool;
  const Phase2Plan& plan = a.plan;

  // Alice's broadcasts: the y identities, the z contents, the s
  // identities.
  packet::encode_into(a.phase1.announcement, scratch_pkt_.payload);
  broadcast(alice, round, packet::Kind::kAnnouncement, 0,
            net::TrafficClass::kControl);
  for (std::size_t zi = 0; zi < a.z.size(); ++zi) {
    scratch_pkt_.payload.assign(a.z[zi].begin(), a.z[zi].end());
    broadcast(alice, round, packet::Kind::kCoded,
              static_cast<std::uint32_t>(zi), net::TrafficClass::kCoded);
  }
  if (plan.group_size > 0) {
    packet::encode_into(plan.s_announcement, scratch_pkt_.payload);
    broadcast(alice, round, packet::Kind::kAnnouncement, 1,
              net::TrafficClass::kControl);
  }

  // Every receiver runs the live client's step on what it heard and must
  // agree with Alice. Its scratch is rewound after each check so the
  // round's peak footprint stays one receiver deep.
  for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
    const packet::PayloadArena::Mark mark = arena.mark();
    const ReceiverOutput own =
        receiver_round(a.phase1.announcement, plan.s_announcement,
                       ctx.rx_payloads[ri], a.z, payload, arena);
    if (own.error != RoundError::kNone)
      throw std::logic_error("GroupSecretSession: receiver step failed: " +
                             std::string(to_string(own.error)));
    for (std::size_t i = 0; i < a.s.size(); ++i)  // L s-packets each
      if (!std::equal(own.payloads[i].begin(), own.payloads[i].end(),
                      a.s[i].begin(), a.s[i].end()))
        throw std::logic_error(
            "GroupSecretSession: terminal decoded a different secret");
    arena.rewind(mark);
  }

  // Eve's exact view and this round's score. The pool matrix and the
  // H*G / C*G products are per-round scratch: carve them from the arena.
  const gf::Matrix g = pool.rows(arena);
  analysis::EveView eve(n);
  eve.observe_x(ctx.eve_indices);
  if (plan.pool_size > 0 && plan.h.rows() > 0)
    eve.observe_coded(plan.h, g, arena);  // public z contents in x-space

  RoundOutcome outcome = outcome_of(ctx, pool);
  outcome.group_packets = plan.group_size;
  outcome.secret_bits = secret_bits(plan, payload);
  outcome.data_packets = n + (pool.size() - plan.group_size);
  const gf::Matrix secret_rows =
      plan.group_size > 0 ? plan.c.mul(g, arena) : gf::Matrix(0, n);
  outcome.leakage = analysis::compute_leakage(eve, secret_rows);

  for (const packet::ConstByteSpan s : a.s)
    result.secret.insert(result.secret.end(), s.begin(), s.end());

  return outcome;
}

}  // namespace thinair::core
