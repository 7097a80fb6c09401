#include "netd/node_session.h"

#include <algorithm>
#include <utility>

#include "core/estimator.h"
#include "core/protocol.h"

namespace thinair::netd {

namespace {

/// Upper bound on N accepted from the wire (sanity, not a protocol limit).
constexpr std::uint32_t kMaxUniverse = 4096;

// An outgoing frame; queue_frame / send_immediate stamp session and node.
Frame make_frame(FrameType type, std::uint32_t aux = 0) {
  Frame f;
  f.header.type = static_cast<std::uint8_t>(type);
  f.header.aux = aux;
  return f;
}

// A protocol broadcast of `phase` in `round`.
Frame make_frame(FrameType type, WirePhase phase, std::uint32_t round,
                 std::uint32_t seq, std::vector<std::uint8_t> payload) {
  Frame f = make_frame(type);
  f.header.phase = static_cast<std::uint8_t>(phase);
  f.header.round = round;
  f.header.seq = seq;
  f.payload = std::move(payload);
  return f;
}

}  // namespace

NodeSession::NodeSession(NodeConfig config)
    : config_(config), payload_rng_(config.payload_seed) {
  reset(config);
}

void NodeSession::reset(NodeConfig config) {
  config_ = config;
  state_ = State::kIdle;
  error_.clear();
  payload_rng_ = channel::Rng(config.payload_seed);
  // Keep the arena's blocks for the next lifecycle; the watermark trim
  // stops one oversized session from pinning its peak.
  arena_.reset();
  arena_.trim_to_watermark();
  queue_.clear();
  inflight_.reset();
  inflight_wire_.clear();
  last_send_s_ = 0.0;
  retries_ = 0;
  outbox_.clear();
  next_relay_ = 0;
  pending_relays_.clear();
  last_rx_s_ = 0.0;
  last_probe_s_ = 0.0;
  attached_ = false;
  roster_.clear();
  round_ = 0;
  round_active_ = false;
  rx_.clear();
  alice_.reset();
  secret_.clear();
  if (config_.node >= 64) fail("node id must be < 64 (NodeSet range)");
  if (config_.members < 2) fail("need at least 2 members");
  if (config_.payload_bytes == 0 || config_.payload_bytes > kMaxPayload)
    fail("payload_bytes out of range");
  if (config_.x_packets_per_round == 0 ||
      config_.x_packets_per_round > kMaxUniverse)
    fail("x_packets_per_round out of range");
}

void NodeSession::fail(std::string why) {
  if (state_ == State::kFailed) return;
  state_ = State::kFailed;
  error_ = std::move(why);
  queue_.clear();
  inflight_.reset();
  outbox_.clear();
}

void NodeSession::queue_frame(Frame f) {
  f.header.session = config_.session_id;
  f.header.node = config_.node;
  queue_.push_back(std::move(f));
}

void NodeSession::send_immediate(Frame f) {
  f.header.session = config_.session_id;
  f.header.node = config_.node;
  outbox_.push_back(encode(f));
}

void NodeSession::start(double now_s) {
  if (state_ != State::kIdle) return;
  state_ = State::kJoining;
  queue_frame(make_frame(FrameType::kAttach, config_.members));
  last_rx_s_ = now_s;
  pump(now_s);
}

void NodeSession::pump(double now_s) {
  if (state_ == State::kFailed || state_ == State::kDone) return;
  if (!inflight_.has_value() && !queue_.empty()) {
    inflight_ = std::move(queue_.front());
    queue_.pop_front();
    inflight_wire_ = encode(*inflight_);
    outbox_.push_back(inflight_wire_);
    last_send_s_ = now_s;
    retries_ = 0;
  }
}

bool NodeSession::poll_datagram(std::vector<std::uint8_t>& out) {
  if (outbox_.empty()) return false;
  out = std::move(outbox_.front());
  outbox_.pop_front();
  return true;
}

void NodeSession::on_tick(double now_s) {
  if (state_ == State::kFailed || state_ == State::kDone ||
      state_ == State::kIdle)
    return;
  if (inflight_.has_value() && now_s - last_send_s_ >= config_.rto_s) {
    if (++retries_ > config_.max_retries) {
      fail("ARQ retries exhausted");
      return;
    }
    outbox_.push_back(inflight_wire_);
    last_send_s_ = now_s;
  }
  // Join probe: the hub sends kReady exactly once per member, and that one
  // datagram has no ARQ of its own. If it is lost, re-send the kAttach —
  // the hub treats a repeat attach as an idempotent replay and re-sends
  // kReady once the roster is complete.
  if (state_ == State::kJoining && attached_ && !inflight_.has_value() &&
      now_s - last_rx_s_ >= config_.probe_s &&
      now_s - last_probe_s_ >= config_.probe_s) {
    send_immediate(make_frame(FrameType::kAttach, config_.members));
    last_probe_s_ = now_s;
  }
  // Idle probe: a kNack carrying the next expected relay seq. The hub
  // resends anything newer we lost; if nothing is newer it ignores the
  // probe. This is what un-wedges a round whose *final* relay was lost.
  if (state_ == State::kRunning && !inflight_.has_value() &&
      now_s - last_rx_s_ >= config_.probe_s &&
      now_s - last_probe_s_ >= config_.probe_s) {
    send_immediate(make_frame(FrameType::kNack, next_relay_));
    last_probe_s_ = now_s;
  }
  pump(now_s);
}

void NodeSession::on_datagram(std::span<const std::uint8_t> bytes,
                              double now_s) {
  if (state_ == State::kFailed || state_ == State::kDone) return;
  DecodeResult decoded = decode(bytes);
  if (!decoded.frame.has_value()) return;  // not ours / corrupt: drop
  const Frame& f = *decoded.frame;
  if (f.header.session != config_.session_id) return;
  last_rx_s_ = now_s;
  on_hub_frame(f, now_s);
  pump(now_s);
}

void NodeSession::on_hub_frame(const Frame& f, double now_s) {
  const auto type = static_cast<FrameType>(f.header.type);
  switch (type) {
    case FrameType::kAttachOk:
      if (inflight_.has_value() &&
          inflight_->header.type ==
              static_cast<std::uint8_t>(FrameType::kAttach)) {
        inflight_.reset();
        attached_ = true;
        maybe_start_round(now_s);
      }
      return;
    case FrameType::kReady: {
      // Payload: u16 count, then per member u16 id + u8 flags.
      const auto& p = f.payload;
      if (p.size() < 2) return fail("malformed kReady");
      const std::size_t count = p[0] | (p[1] << 8);
      if (p.size() != 2 + count * 3) return fail("malformed kReady");
      std::vector<std::uint16_t> terminals;
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint16_t id = static_cast<std::uint16_t>(
            p[2 + i * 3] | (p[3 + i * 3] << 8));
        const bool eve = (p[4 + i * 3] & kFlagEve) != 0;
        if (eve) continue;
        if (id >= 64) return fail("roster has a terminal id >= 64");
        terminals.push_back(id);
      }
      if (terminals.size() < 2) return fail("roster has < 2 terminals");
      if (std::find(terminals.begin(), terminals.end(), config_.node) ==
          terminals.end())
        return fail("roster does not contain this node");
      roster_ = std::move(terminals);  // std::map order: already ascending
      maybe_start_round(now_s);
      drain_relays(now_s);  // relays that overtook this kReady
      return;
    }
    case FrameType::kTxReport:  // acks an in-flight kData
    case FrameType::kCtrlAck: {  // acks an in-flight kCtrl
      const FrameType acked = type == FrameType::kTxReport ? FrameType::kData
                                                           : FrameType::kCtrl;
      if (inflight_.has_value() &&
          inflight_->header.type == static_cast<std::uint8_t>(acked) &&
          inflight_->header.phase == f.header.phase &&
          inflight_->header.round == f.header.round &&
          inflight_->header.seq == f.header.seq)
        inflight_.reset();
      return;
    }
    case FrameType::kBye:
      if (state_ == State::kClosing) {
        inflight_.reset();
        state_ = State::kDone;
      }
      return;
    case FrameType::kRelay:
      on_relay(f, now_s);
      return;
    case FrameType::kError:
      fail("hub error: " + std::string(f.payload.begin(), f.payload.end()));
      return;
    case FrameType::kExpired:
      fail("session expired at hub");
      return;
    default:
      return;  // client-origin types echoed back: noise
  }
}

void NodeSession::on_relay(const Frame& f, double now_s) {
  const std::uint32_t seq = f.header.aux;
  if (seq < next_relay_) return;  // duplicate
  // Hold relays until the roster is known: a relay can overtake the single
  // kReady datagram (UDP reorders, or kReady is lost outright) and
  // deliver() needs the roster to attribute frames to the round's Alice.
  if (roster_.empty()) {
    pending_relays_.emplace(seq, f);
    return;
  }
  if (seq > next_relay_) {
    // Gap: buffer and ask the hub to resend from the first missing seq.
    pending_relays_.emplace(seq, f);
    if (now_s - last_probe_s_ >= config_.rto_s / 2.0) {
      send_immediate(make_frame(FrameType::kNack, next_relay_));
      last_probe_s_ = now_s;
    }
    return;
  }
  deliver(f, now_s);
  ++next_relay_;
  drain_relays(now_s);
}

void NodeSession::drain_relays(double now_s) {
  if (roster_.empty()) return;
  auto it = pending_relays_.begin();
  while (it != pending_relays_.end() && state_ != State::kFailed) {
    if (it->first < next_relay_) {
      it = pending_relays_.erase(it);
      continue;
    }
    if (it->first != next_relay_) break;
    deliver(it->second, now_s);
    ++next_relay_;
    it = pending_relays_.erase(it);
  }
}

void NodeSession::deliver(const Frame& f, double now_s) {
  // A relayed frame preserves the original sender's phase/round/seq; the
  // original type is recovered from the phase (kXData came in as kData,
  // everything else as kCtrl).
  const auto phase = static_cast<WirePhase>(f.header.phase);
  const std::uint32_t round = f.header.round;
  if (round >= total_rounds() && state_ == State::kRunning)
    return;  // stray frame past the agreed horizon
  if (phase == WirePhase::kXData) {
    if (f.header.node != alice_of(round)) return;
    RoundRx& rr = rx_[round];
    if (f.payload.size() != config_.payload_bytes) return;
    rr.x.emplace(f.header.seq, f.payload);
    return;
  }
  on_ctrl(f, now_s);
}

void NodeSession::on_ctrl(const Frame& f, double now_s) {
  const auto phase = static_cast<WirePhase>(f.header.phase);
  const std::uint32_t round = f.header.round;
  const bool from_alice = f.header.node == alice_of(round);

  switch (phase) {
    case WirePhase::kEndOfX: {
      if (!from_alice) return;
      RoundRx& rr = rx_[round];
      if (f.payload.size() != 4) return fail("malformed kEndOfX");
      const std::uint32_t n = static_cast<std::uint32_t>(f.payload[0]) |
                              (static_cast<std::uint32_t>(f.payload[1]) << 8) |
                              (static_cast<std::uint32_t>(f.payload[2]) << 16) |
                              (static_cast<std::uint32_t>(f.payload[3]) << 24);
      if (n == 0 || n > kMaxUniverse) return fail("bad universe in kEndOfX");
      if (rr.universe != 0) return;  // reported already
      rr.universe = n;
      packet::ReceptionReport report;
      report.universe = n;
      for (const auto& [seq, payload] : rr.x)
        if (seq < n) report.received.push_back(seq);
      queue_frame(make_frame(FrameType::kCtrl, WirePhase::kReport, round, 0,
                             packet::encode(report)));
      return;
    }
    case WirePhase::kReport: {
      // Only the round's Alice consumes peer reports.
      if (alice_of(round) != config_.node || !alice_.has_value() ||
          round_ != round)
        return;
      const packet::NodeId from{f.header.node};
      const std::vector<packet::NodeId>& terminals = alice_->table.receivers();
      if (std::find(terminals.begin(), terminals.end(), from) ==
          terminals.end())
        return;  // an eavesdropper or other non-roster member: no say
      if (alice_->reported.contains(from)) return;  // keep the first
      const auto decoded = packet::decode_report(f.payload);
      if (!decoded.has_value()) return fail("undecodable reception report");
      const core::RoundError e =
          core::record_report(alice_->table, from, *decoded);
      if (e != core::RoundError::kNone)
        return fail("bad reception report: " +
                    std::string(core::to_string(e)));
      alice_->reported.insert(from);
      if (alice_->reported.size() == alice_->table.receivers().size())
        finish_alice_round(now_s);
      return;
    }
    case WirePhase::kYAnnouncement: {
      if (!from_alice) return;
      auto decoded = packet::decode_announcement(f.payload);
      if (!decoded.has_value()) return fail("undecodable y-announcement");
      rx_[round].y_ann = std::move(*decoded);
      return;
    }
    case WirePhase::kZCoded: {  // sizes are the core's to check
      if (!from_alice) return;
      rx_[round].z.emplace(f.header.seq, f.payload);
      return;
    }
    case WirePhase::kSAnnouncement: {
      if (!from_alice) return;
      auto decoded = packet::decode_announcement(f.payload);
      if (!decoded.has_value()) return fail("undecodable s-announcement");
      finish_receiver_round(round, *decoded, now_s);
      return;
    }
    default:
      return;
  }
}

void NodeSession::maybe_start_round(double now_s) {
  if (state_ == State::kJoining && attached_ && !roster_.empty())
    state_ = State::kRunning;
  if (state_ != State::kRunning || round_active_) return;
  if (round_ >= total_rounds()) {
    state_ = State::kClosing;
    queue_frame(make_frame(FrameType::kBye));
    return;
  }
  round_active_ = true;
  if (alice_of(round_) == config_.node) start_alice_round(now_s);
  // Receivers are stream-driven: nothing to do until relays arrive.
}

void NodeSession::start_alice_round(double /*now_s*/) {
  const std::size_t n = config_.x_packets_per_round;
  std::vector<packet::NodeId> receivers;
  for (std::uint16_t id : roster_)
    if (id != config_.node) receivers.push_back(packet::NodeId{id});
  alice_.emplace(AliceState{
      .x = std::vector<std::vector<std::uint8_t>>(n),
      .table = core::ReceptionTable(packet::NodeId{config_.node},
                                    std::move(receivers), n),
      .reported = {}});
  for (std::size_t i = 0; i < n; ++i) {
    auto& payload = alice_->x[i];
    payload.resize(config_.payload_bytes);
    payload_rng_.fill(payload);
    queue_frame(make_frame(FrameType::kData, WirePhase::kXData, round_,
                           static_cast<std::uint32_t>(i), payload));
  }
  // N travels in the payload: relays repurpose aux for the stream seq.
  const auto n32 = static_cast<std::uint32_t>(n);
  queue_frame(make_frame(FrameType::kCtrl, WirePhase::kEndOfX, round_, 0,
                         {static_cast<std::uint8_t>(n32),
                          static_cast<std::uint8_t>(n32 >> 8),
                          static_cast<std::uint8_t>(n32 >> 16),
                          static_cast<std::uint8_t>(n32 >> 24)}));
}

void NodeSession::finish_alice_round(double now_s) {
  arena_.reset();

  // The daemon path has no oracle and no interference schedule, so size
  // the secret with the paper's empirical strategy (loo-fraction).
  core::EstimatorSpec spec;
  spec.kind = core::EstimatorKind::kLooFraction;
  const std::vector<packet::ConstByteSpan> x(alice_->x.begin(),
                                             alice_->x.end());
  const core::AliceRound r = core::alice_round(
      alice_->table, *core::build_estimator(spec, alice_->table, {}),
      core::PoolStrategy::kClassShared, x, config_.payload_bytes, arena_);

  Frame ya = make_frame(FrameType::kCtrl, WirePhase::kYAnnouncement, round_,
                        0, packet::encode(r.phase1.announcement));
  if (ya.payload.size() > kMaxPayload)
    return fail("y-announcement exceeds frame cap (reduce N)");
  queue_frame(std::move(ya));
  for (std::size_t zi = 0; zi < r.z.size(); ++zi)
    queue_frame(make_frame(FrameType::kCtrl, WirePhase::kZCoded, round_,
                           static_cast<std::uint32_t>(zi),
                           {r.z[zi].begin(), r.z[zi].end()}));
  Frame sa = make_frame(FrameType::kCtrl, WirePhase::kSAnnouncement, round_,
                        0, packet::encode(r.plan.s_announcement));
  if (sa.payload.size() > kMaxPayload)
    return fail("s-announcement exceeds frame cap (reduce N)");
  queue_frame(std::move(sa));

  for (const packet::ConstByteSpan s : r.s)
    secret_.insert(secret_.end(), s.begin(), s.end());
  alice_.reset();
  round_complete(now_s);
}

void NodeSession::finish_receiver_round(std::uint32_t round,
                                        const packet::Announcement& s_ann,
                                        double now_s) {
  auto it = rx_.find(round);
  if (it == rx_.end() || !it->second.y_ann.has_value())
    return fail("s-announcement before y-announcement");
  RoundRx& rr = it->second;
  if (rr.universe == 0) return fail("s-announcement before kEndOfX");

  std::vector<packet::ConstByteSpan> x(rr.universe);
  for (const auto& [seq, bytes] : rr.x)
    if (seq < rr.universe) x[seq] = bytes;
  // z in sequence order; a gap stays an empty span, which the core
  // rejects as a size mismatch.
  std::vector<packet::ConstByteSpan> z;
  z.reserve(rr.z.size());
  for (const auto& [seq, bytes] : rr.z)
    z.push_back(seq == z.size() ? packet::ConstByteSpan(bytes)
                                : packet::ConstByteSpan{});

  arena_.reset();
  const core::ReceiverOutput own = core::receiver_round(
      *rr.y_ann, s_ann, x, z, config_.payload_bytes, arena_);
  if (own.error != core::RoundError::kNone)
    return fail("secret reconstruction failed: " +
                std::string(core::to_string(own.error)));
  for (const packet::ConstByteSpan s : own.payloads)
    secret_.insert(secret_.end(), s.begin(), s.end());

  rx_.erase(it);
  round_complete(now_s);
}

void NodeSession::round_complete(double now_s) {
  ++round_;
  round_active_ = false;
  maybe_start_round(now_s);
}

}  // namespace thinair::netd
