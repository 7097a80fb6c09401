// Fixture: a session that writes the round out itself — rebuilding the
// phase-2 plan, repairing and evaluating the secret next to its transport
// code. This is how the round ended up copied three times; sessions call
// core::receiver_round instead.
#include "core/phase2.h"

std::vector<thinair::packet::ConstByteSpan> finish_round(
    std::size_t m, std::size_t l,
    std::span<const thinair::packet::ConstByteSpan> own_y,
    std::span<const thinair::packet::ConstByteSpan> z, std::size_t payload,
    thinair::packet::PayloadArena& arena) {
  // finding: the plan rebuilt by hand
  const auto plan = thinair::core::plan_phase2(m, l);
  // finding: repair and evaluation outside the core
  const auto full =
      thinair::core::recover_all_y(plan, own_y, z, payload, arena);
  return thinair::core::make_s_payloads(plan, full, payload, arena);
}
