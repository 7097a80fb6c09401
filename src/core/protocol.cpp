#include "core/protocol.h"

#include <algorithm>

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
  // construction depends on nothing else, so this is Alice's exact code.
  const Phase2Plan plan = phase2_code(m, l);
  const std::vector<packet::ConstByteSpan> full_y =
      recover_all_y(plan, own.payloads, z, payload_size, arena);
  return {RoundError::kNone,
          make_s_payloads(plan, full_y, payload_size, arena)};
}

}  // namespace thinair::core
