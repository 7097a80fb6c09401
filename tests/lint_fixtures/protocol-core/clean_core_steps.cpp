// Fixture: a session that only moves bytes around the core's steps. The
// phase-2 names may appear in comments ("make_s_payloads(plan, y)") and
// strings, and as parts of longer identifiers, without a finding.
#include <string>

#include "core/protocol.h"

std::size_t replan_phase2(std::size_t m) { return m; }

std::string finish_round(const thinair::core::AliceRound& alice,
                         std::span<const thinair::packet::ConstByteSpan> x,
                         thinair::packet::PayloadArena& arena) {
  const thinair::core::ReceiverOutput own = thinair::core::receiver_round(
      alice.phase1.announcement, alice.plan.s_announcement, x, alice.z, 16,
      arena);
  if (own.error != thinair::core::RoundError::kNone)
    return "recover_all_y( is the core's business";
  return std::to_string(replan_phase2(own.payloads.size()));
}
