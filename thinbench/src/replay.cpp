#include "replay.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/eve_view.h"
#include "analysis/leakage.h"
#include "core/estimator.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "core/round.h"
#include "gf/kernels.h"
#include "net/reliable.h"
#include "packet/serialize.h"

namespace thinbench {

namespace core = thinair::core;
namespace net = thinair::net;
namespace packet = thinair::packet;
namespace gf = thinair::gf;
namespace analysis = thinair::analysis;

namespace {

std::uint64_t frames(const net::Ledger& l) {
  std::uint64_t f = 0;
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c)
    f += l.frames(static_cast<net::TrafficClass>(c));
  return f;
}

// Bytes read by evaluating every y-packet of `pool` (one multiply-add of
// a payload per combination term).
double y_eval_bytes(const core::YPool& pool, std::size_t payload) {
  std::size_t terms = 0;
  for (const core::YPool::Entry& e : pool.entries())
    terms += e.combo.terms().size();
  return static_cast<double>(terms * payload);
}

double audience_eval_bytes(const core::YPool& pool, packet::NodeId who,
                           std::size_t payload) {
  std::size_t terms = 0;
  for (const core::YPool::Entry& e : pool.entries())
    if (e.audience.contains(who)) terms += e.combo.terms().size();
  return static_cast<double>(terms * payload);
}

void reliable(net::Medium& medium, packet::NodeId source,
              const packet::Packet& pkt, net::TrafficClass cls, Tracer& t,
              std::uint64_t unit, ReplayCounts& counts) {
  const Scope s(&t, Kind::kReliable, unit);
  const net::ReliableResult r =
      net::reliable_broadcast(medium, source, pkt, cls);
  ++counts.reliable_packets;
  counts.reliable_attempts += r.attempts;
}

// The phase-1 opening shared by both algorithms (session.cpp and
// unicast.cpp run the identical sequence).
struct Opened {
  core::RoundContext ctx;
  std::unique_ptr<core::EveBoundEstimator> estimator;
  core::Phase1Result phase1;
};

Opened open_and_phase1(net::Medium& medium, const core::SessionConfig& cfg,
                       packet::NodeId alice, packet::RoundId round,
                       packet::PayloadArena& arena,
                       std::vector<std::size_t>& receiver_cells, Tracer& t,
                       std::uint64_t unit) {
  std::optional<core::RoundContext> ctx;
  {
    const Scope s(&t, Kind::kOpenRound, unit);
    ctx.emplace(core::open_round(medium, alice, round,
                                 cfg.x_packets_per_round, cfg.payload_bytes,
                                 arena));
  }
  receiver_cells.clear();
  if (!cfg.estimator.occupied_cells.empty())
    for (packet::NodeId r : ctx->receivers)
      receiver_cells.push_back(cfg.estimator.occupied_cells.at(r.value));
  std::unique_ptr<core::EveBoundEstimator> estimator;
  {
    const Scope s(&t, Kind::kEstimator, unit);
    estimator = core::build_estimator(cfg.estimator, ctx->table,
                                      ctx->eve_indices, ctx->slot_of,
                                      receiver_cells);
  }
  std::optional<core::Phase1Result> phase1;
  {
    const Scope s(&t, Kind::kPhase1, unit);
    phase1.emplace(
        core::run_phase1(ctx->table, *estimator, cfg.pool_strategy));
  }
  return Opened{std::move(*ctx), std::move(estimator), std::move(*phase1)};
}

core::RoundOutcome group_round(net::Medium& medium,
                               const core::SessionConfig& cfg,
                               packet::NodeId alice, packet::RoundId round,
                               packet::PayloadArena& arena,
                               packet::Packet& pkt,
                               std::vector<std::size_t>& receiver_cells,
                               core::SessionResult& result, Tracer& t,
                               std::uint64_t unit, ReplayCounts& counts) {
  // Declared first: covers outcome assembly and the release of every
  // round-local below, as GroupSecretSession::run_round's exit does.
  DeferredScope epilogue(&t, Kind::kEpilogue, unit);
  const std::size_t n = cfg.x_packets_per_round;
  const std::size_t payload = cfg.payload_bytes;
  {
    const Scope s(&t, Kind::kArenaReset, unit);
    arena.reset();
  }

  const Opened o = open_and_phase1(medium, cfg, alice, round, arena,
                                   receiver_cells, t, unit);
  const core::RoundContext& ctx = o.ctx;
  const core::YPool& pool = o.phase1.build.pool;

  pkt.kind = packet::Kind::kAnnouncement;
  pkt.source = alice;
  pkt.round = round;
  pkt.seq = packet::PacketSeq{0};
  {
    const Scope s(&t, Kind::kSerialize, unit);
    packet::encode_into(o.phase1.announcement, pkt.payload);
  }
  reliable(medium, alice, pkt, net::TrafficClass::kControl, t, unit, counts);

  core::Phase2Plan plan;
  {
    const Scope s(&t, Kind::kPhase2Plan, unit);
    plan = core::plan_phase2(pool);
  }
  std::vector<packet::ConstByteSpan> y_contents, z_payloads;
  {
    const Scope s(&t, Kind::kEncode, unit);
    y_contents = core::all_y_contents(pool, ctx.x_payloads, payload, arena);
    z_payloads = core::make_z_payloads(plan, y_contents, payload, arena);
  }

  pkt.kind = packet::Kind::kCoded;
  if (!z_payloads.empty()) {
    const Scope s(&t, Kind::kReliable, unit);
    for (std::size_t zi = 0; zi < z_payloads.size(); ++zi) {
      pkt.seq = packet::PacketSeq{static_cast<std::uint32_t>(zi)};
      pkt.payload.assign(z_payloads[zi].begin(), z_payloads[zi].end());
      const net::ReliableResult r = net::reliable_broadcast(
          medium, alice, pkt, net::TrafficClass::kCoded);
      ++counts.reliable_packets;
      counts.reliable_attempts += r.attempts;
    }
  }
  if (plan.group_size > 0) {
    pkt.kind = packet::Kind::kAnnouncement;
    pkt.seq = packet::PacketSeq{1};
    {
      const Scope s(&t, Kind::kSerialize, unit);
      packet::encode_into(plan.s_announcement, pkt.payload);
    }
    reliable(medium, alice, pkt, net::TrafficClass::kControl, t, unit, counts);
  }

  std::vector<packet::ConstByteSpan> s_payloads;
  if (plan.group_size > 0) {
    const Scope s(&t, Kind::kEncode, unit);
    s_payloads = core::make_s_payloads(plan, y_contents, payload, arena);
  }

  const std::size_t m = plan.pool_size;
  const std::size_t l = plan.group_size;
  counts.gf_bytes += y_eval_bytes(pool, payload) +
                     static_cast<double>(((m - l) * m + l * m) * payload);

  if (plan.group_size > 0) {
    for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
      const packet::PayloadArena::Mark mark = arena.mark();
      bool equal = true;
      {
        const Scope s(&t, Kind::kDecode, unit);
        const auto own_y = core::reconstruct_y(pool, ctx.receivers[ri],
                                               ctx.rx_payloads[ri], payload,
                                               arena);
        const auto full_y =
            core::recover_all_y(plan, own_y, z_payloads, payload, arena);
        const auto own_s = core::make_s_payloads(plan, full_y, payload, arena);
        equal = own_s.size() == s_payloads.size();
        for (std::size_t i = 0; equal && i < own_s.size(); ++i)
          equal = std::equal(own_s[i].begin(), own_s[i].end(),
                             s_payloads[i].begin(), s_payloads[i].end());
      }
      if (!equal)
        throw std::logic_error("replay: terminal decoded a different secret");
      counts.gf_bytes += audience_eval_bytes(pool, ctx.receivers[ri], payload) +
                         static_cast<double>(((m - l) * m + l * m) * payload);
      arena.rewind(mark);
    }
  }

  gf::Matrix g(0, n);
  {
    const Scope s(&t, Kind::kSecretRows, unit);
    g = pool.rows(arena);
  }
  std::optional<analysis::EveView> eve;
  {
    const Scope s(&t, Kind::kEveView, unit);
    eve.emplace(n);
    eve->observe_x(ctx.eve_indices);
    if (plan.pool_size > 0 && plan.h.rows() > 0)
      eve->observe_coded(plan.h, g, arena);
  }

  epilogue.begin();
  core::RoundOutcome outcome;
  outcome.alice = alice;
  outcome.universe = n;
  for (packet::NodeId r : ctx.receivers)
    outcome.pairwise_size.push_back(pool.count_for(r));
  outcome.pool_size = pool.size();
  outcome.group_packets = plan.group_size;
  outcome.secret_bits = core::secret_bits(plan, payload);
  outcome.data_packets = n + (pool.size() - plan.group_size);
  gf::Matrix secret_rows(0, n);
  if (plan.group_size > 0) {
    const Scope s(&t, Kind::kSecretRows, unit);
    secret_rows = plan.c.mul(g, arena);
  }
  {
    const Scope s(&t, Kind::kLeakage, unit);
    outcome.leakage = analysis::compute_leakage(*eve, secret_rows);
  }
  for (const packet::ConstByteSpan sp : s_payloads)
    result.secret.insert(result.secret.end(), sp.begin(), sp.end());
  return outcome;
}

core::RoundOutcome unicast_round(net::Medium& medium,
                                 const core::SessionConfig& cfg,
                                 packet::NodeId alice, packet::RoundId round,
                                 packet::PayloadArena& arena,
                                 std::vector<std::size_t>& receiver_cells,
                                 core::SessionResult& result, Tracer& t,
                                 std::uint64_t unit, ReplayCounts& counts) {
  // Declared first: covers outcome assembly and the release of every
  // round-local below, as GroupSecretSession::run_round's exit does.
  DeferredScope epilogue(&t, Kind::kEpilogue, unit);
  const std::size_t n = cfg.x_packets_per_round;
  const std::size_t payload = cfg.payload_bytes;
  {
    const Scope s(&t, Kind::kArenaReset, unit);
    arena.reset();
  }

  const Opened o = open_and_phase1(medium, cfg, alice, round, arena,
                                   receiver_cells, t, unit);
  const core::RoundContext& ctx = o.ctx;
  const core::YPool& pool = o.phase1.build.pool;

  {
    packet::Packet pkt{.kind = packet::Kind::kAnnouncement,
                       .source = alice,
                       .round = round,
                       .seq = packet::PacketSeq{0},
                       .payload = {}};
    {
      const Scope s(&t, Kind::kSerialize, unit);
      pkt.payload = packet::encode(o.phase1.announcement);
    }
    reliable(medium, alice, pkt, net::TrafficClass::kControl, t, unit, counts);
  }

  gf::Matrix g(0, n);
  {
    const Scope s(&t, Kind::kSecretRows, unit);
    g = pool.rows(arena);
  }
  std::vector<std::vector<std::size_t>> assigned(ctx.receivers.size());
  std::size_t l = pool.size();
  {
    const Scope s(&t, Kind::kUnicastAssign, unit);
    for (std::size_t row = 0; row < pool.size(); ++row) {
      std::size_t best = ctx.receivers.size();
      for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
        if (!pool.entries()[row].audience.contains(ctx.receivers[ri]))
          continue;
        if (best == ctx.receivers.size() ||
            assigned[ri].size() < assigned[best].size())
          best = ri;
      }
      if (best != ctx.receivers.size()) assigned[best].push_back(row);
    }
    for (const auto& rows : assigned) l = std::min(l, rows.size());
    if (ctx.receivers.empty()) l = 0;
  }

  core::RoundOutcome outcome;
  outcome.alice = alice;
  outcome.universe = n;
  for (packet::NodeId r : ctx.receivers)
    outcome.pairwise_size.push_back(pool.count_for(r));
  outcome.pool_size = pool.size();
  outcome.group_packets = l;
  outcome.secret_bits = l * payload * 8;
  outcome.data_packets =
      n + (ctx.receivers.size() < 2 ? 0 : (ctx.receivers.size() - 1) * l);

  if (l == 0 || ctx.receivers.empty()) {
    epilogue.begin();
    std::optional<analysis::EveView> eve;
    {
      const Scope s(&t, Kind::kEveView, unit);
      eve.emplace(n);
      eve->observe_x(ctx.eve_indices);
    }
    const Scope s(&t, Kind::kLeakage, unit);
    outcome.leakage = analysis::compute_leakage(*eve, gf::Matrix(0, n));
    return outcome;
  }

  std::vector<packet::ConstByteSpan> y_contents;
  {
    const Scope s(&t, Kind::kEncode, unit);
    y_contents = core::all_y_contents(pool, ctx.x_payloads, payload, arena);
  }
  counts.gf_bytes += y_eval_bytes(pool, payload);

  const auto secret_indices_of = [&](std::size_t ri) {
    auto rows = assigned[ri];
    rows.resize(l);
    return rows;
  };
  const std::vector<std::size_t> group_idx = secret_indices_of(0);
  std::vector<packet::ConstByteSpan> s_payloads;
  s_payloads.reserve(l);
  for (std::size_t j : group_idx) s_payloads.push_back(y_contents[j]);

  std::optional<analysis::EveView> eve;
  {
    const Scope s(&t, Kind::kEveView, unit);
    eve.emplace(n);
    eve->observe_x(ctx.eve_indices);
  }
  gf::Matrix secret_rows(0, n);
  {
    const Scope s(&t, Kind::kSecretRows, unit);
    secret_rows = g.select_rows(group_idx);
  }

  // Per receiver: pad the secret (gf), derive the public ciphertext rows
  // (analysis), then unicast the l ciphertexts in order (net). The pad
  // XORs are pure, so computing them ahead of the transmissions leaves
  // the medium's draw sequence exactly as UnicastSession's interleaving.
  std::vector<packet::Payload> bodies(l);
  for (std::size_t ri = 1; ri < ctx.receivers.size(); ++ri) {
    const std::vector<std::size_t> pad_idx = secret_indices_of(ri);
    {
      const Scope s(&t, Kind::kEncode, unit);
      for (std::size_t j = 0; j < l; ++j) {
        bodies[j].assign(s_payloads[j].begin(), s_payloads[j].end());
        gf::xor_into(y_contents[pad_idx[j]].data(), bodies[j].data(), payload);
      }
    }
    gf::Matrix cipher_rows(l, n);
    {
      const Scope s(&t, Kind::kEveView, unit);
      for (std::size_t j = 0; j < l; ++j)
        for (std::size_t c = 0; c < n; ++c)
          cipher_rows.set(j, c, secret_rows.at(j, c) + g.at(pad_idx[j], c));
    }
    {
      const Scope s(&t, Kind::kReliable, unit);
      for (std::size_t j = 0; j < l; ++j) {
        packet::Packet pkt{
            .kind = packet::Kind::kCipher,
            .source = alice,
            .round = round,
            .seq = packet::PacketSeq{static_cast<std::uint32_t>(j)},
            .payload = std::move(bodies[j])};
        const net::ReliableResult r =
            net::reliable_unicast(medium, alice, ctx.receivers[ri], pkt,
                                  net::TrafficClass::kCipher);
        ++counts.reliable_packets;
        counts.reliable_attempts += r.attempts;
      }
    }
    counts.gf_bytes += static_cast<double>(l * payload);
    const Scope s(&t, Kind::kEveView, unit);
    eve->observe_combinations(cipher_rows);
  }

  for (std::size_t ri = 1; ri < ctx.receivers.size(); ++ri) {
    const packet::PayloadArena::Mark mark = arena.mark();
    bool equal = true;
    {
      const Scope s(&t, Kind::kDecode, unit);
      const auto own_y = core::reconstruct_y(pool, ctx.receivers[ri],
                                             ctx.rx_payloads[ri], payload,
                                             arena);
      const std::vector<std::size_t> pad_idx = secret_indices_of(ri);
      for (std::size_t j = 0; equal && j < l; ++j) {
        const packet::ByteSpan cipher = arena.copy(s_payloads[j]);
        gf::xor_into(y_contents[pad_idx[j]].data(), cipher.data(), payload);
        if (own_y[pad_idx[j]].empty())
          throw std::logic_error("replay: receiver lacks its pad");
        gf::xor_into(own_y[pad_idx[j]].data(), cipher.data(), payload);
        equal = std::equal(cipher.begin(), cipher.end(), s_payloads[j].begin(),
                           s_payloads[j].end());
      }
    }
    if (!equal)
      throw std::logic_error("replay: receiver decoded a different secret");
    counts.gf_bytes += audience_eval_bytes(pool, ctx.receivers[ri], payload) +
                       static_cast<double>(2 * l * payload);
    arena.rewind(mark);
  }

  epilogue.begin();
  {
    const Scope s(&t, Kind::kLeakage, unit);
    outcome.leakage = analysis::compute_leakage(*eve, secret_rows);
  }
  for (const packet::ConstByteSpan sp : s_payloads)
    result.secret.insert(result.secret.end(), sp.begin(), sp.end());
  return outcome;
}

template <bool kUnicast>
core::SessionResult replay(net::Medium& medium, const core::SessionConfig& cfg,
                           Tracer& t, std::uint64_t unit,
                           ReplayCounts& counts) {
  const auto terminals = medium.terminals();
  const std::size_t rounds = cfg.rounds == 0 ? terminals.size() : cfg.rounds;
  // The session's own arena when the config names none (as a freshly
  // constructed session with a null arena would use).
  std::optional<packet::PayloadArena> owned;
  if (cfg.arena == nullptr) owned.emplace();
  packet::PayloadArena& arena = cfg.arena != nullptr ? *cfg.arena : *owned;
  // Round scratch that a pooled session keeps across lifetimes: contents
  // are rewritten on every use, only capacity survives.
  thread_local packet::Packet pkt;
  thread_local std::vector<std::size_t> receiver_cells;

  core::SessionResult result;
  const net::Ledger ledger_before = medium.ledger();
  const double time_before = medium.now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const packet::NodeId alice =
        cfg.rotate_alice ? terminals[r % terminals.size()] : terminals[0];
    const packet::RoundId round{static_cast<std::uint32_t>(r)};
    const std::uint64_t frames_before = frames(medium.ledger());
    {
      const Scope s(&t, Kind::kRound, unit);
      if constexpr (kUnicast)
        result.rounds.push_back(unicast_round(medium, cfg, alice, round, arena,
                                              receiver_cells, result, t, unit,
                                              counts));
      else
        result.rounds.push_back(group_round(medium, cfg, alice, round, arena,
                                            pkt, receiver_cells, result, t,
                                            unit, counts));
    }
    counts.transmits += frames(medium.ledger()) - frames_before;
    ++counts.rounds;
  }
  result.ledger = medium.ledger().since(ledger_before);
  result.duration_s = medium.now() - time_before;
  return result;
}

bool same_outcome(const core::RoundOutcome& a, const core::RoundOutcome& b) {
  return a.alice == b.alice && a.universe == b.universe &&
         a.pairwise_size == b.pairwise_size && a.pool_size == b.pool_size &&
         a.group_packets == b.group_packets && a.secret_bits == b.secret_bits &&
         a.data_packets == b.data_packets &&
         a.leakage.secret_dims == b.leakage.secret_dims &&
         a.leakage.hidden_dims == b.leakage.hidden_dims &&
         a.leakage.leaked_dims == b.leakage.leaked_dims &&
         a.leakage.reliability == b.leakage.reliability;
}

}  // namespace

core::SessionResult replay_group(net::Medium& medium,
                                 const core::SessionConfig& config, Tracer& t,
                                 std::uint64_t unit, ReplayCounts& counts) {
  return replay<false>(medium, config, t, unit, counts);
}

core::SessionResult replay_unicast(net::Medium& medium,
                                   const core::SessionConfig& config,
                                   Tracer& t, std::uint64_t unit,
                                   ReplayCounts& counts) {
  return replay<true>(medium, config, t, unit, counts);
}

bool same_result(const core::SessionResult& a, const core::SessionResult& b) {
  if (a.secret != b.secret || a.duration_s != b.duration_s ||
      a.rounds.size() != b.rounds.size())
    return false;
  for (std::size_t c = 0; c < net::kTrafficClassCount; ++c) {
    const auto cls = static_cast<net::TrafficClass>(c);
    if (a.ledger.bytes(cls) != b.ledger.bytes(cls) ||
        a.ledger.frames(cls) != b.ledger.frames(cls))
      return false;
  }
  for (std::size_t r = 0; r < a.rounds.size(); ++r)
    if (!same_outcome(a.rounds[r], b.rounds[r])) return false;
  return true;
}

}  // namespace thinbench
