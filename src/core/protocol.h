#pragma once
// The protocol core: one round of the secret-agreement algorithm (Sec. 3)
// as two sans-io steps, shared by every session that runs a round.
//
//   Alice     holds every x-packet she sent and the reception table built
//             from the reports (phase 1 step 2). alice_round() builds the
//             y-pool and its public y-announcement, plans phase 2, and
//             evaluates the y-, z- and s-payloads.
//   receiver  holds its own x-packets and the public broadcasts only.
//             receiver_round() derives which y-packets it can rebuild from
//             the y-announcement (every x-packet of the combination was
//             received) and decodes the s-packets directly from those and
//             the z contents: the phase-2 code follows from the public
//             sizes M and L, and the missing y-packets are never formed.
//
// The sessions around it only move bytes: GroupSecretSession and
// UnicastSession over the simulated net::Medium, netd::NodeSession over the
// thinaird wire. The simulator checks each terminal by running
// receiver_round() on what that terminal heard — the step a live client
// runs.
//
// Payloads are spans in and arena spans out; an empty x-span is a missed
// packet. Everything a receiver (or Alice, for reports) takes from the
// public discussion is validated: an inconsistency comes back as a
// classified RoundError, never as an exception.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/phase1.h"
#include "core/phase2.h"
#include "packet/arena.h"
#include "packet/serialize.h"

namespace thinair::core {

enum class RoundError : std::uint8_t {
  kNone = 0,
  kNotTerminal,       // a reception report from a node that is no receiver
  kUniverseMismatch,  // a reception report over a different N
  kIndexOutOfRange,   // a reported or announced x-index >= N
  kGroupExceedsPool,  // more s- than y-identities announced (L > M)
  kPoolTooLarge,      // M beyond GF(2^8)'s phase-2 code (M > 255, L > 0)
  kZCount,            // z count != M - L (0 when L == 0)
  kPayloadSize,       // an x- or z-payload of the wrong size
  kTooFewY,           // fewer than L own y-packets: z cannot repair the rest
};

[[nodiscard]] std::string_view to_string(RoundError e);

/// Step 2 on Alice's side: record terminal `from`'s report in the table.
[[nodiscard]] RoundError record_report(ReceptionTable& table,
                                       packet::NodeId from,
                                       const packet::ReceptionReport& report);

/// Alice's round, every payload carved from the caller's arena.
struct AliceRound {
  Phase1Result phase1;  // the y-pool and the public y-announcement
  Phase2Plan plan;      // z/s construction and the public s-announcement
  std::vector<packet::ConstByteSpan> y;  // M y-contents, pool order
  std::vector<packet::ConstByteSpan> z;  // M - L z-contents (none if L == 0)
  std::vector<packet::ConstByteSpan> s;  // L s-packets: the round's secret
};

/// The whole round from Alice's side. `x` holds all N payloads of
/// `payload_size` bytes.
[[nodiscard]] AliceRound alice_round(
    const ReceptionTable& table, const EveBoundEstimator& estimator,
    PoolStrategy strategy, std::span<const packet::ConstByteSpan> x,
    std::size_t payload_size, packet::PayloadArena& arena);

/// A receiver step's result: `payloads` is meaningful iff error == kNone.
struct ReceiverOutput {
  RoundError error = RoundError::kNone;
  std::vector<packet::ConstByteSpan> payloads;
};

/// Phase 1 from a terminal's side. `x` has one span per x-index (N of
/// them, empty = missed). Returns, per y in announcement order, its
/// content when the terminal holds every x-packet of the combination and
/// an empty span otherwise.
[[nodiscard]] ReceiverOutput receiver_y(
    const packet::Announcement& y_announcement,
    std::span<const packet::ConstByteSpan> x, std::size_t payload_size,
    packet::PayloadArena& arena);

/// The whole round from a terminal's side: the L s-payloads, from the
/// public announcements, the own x-spans and the z-contents in sequence
/// order. With d unknown y-packets, a Gauss-Jordan on d x (d + L)
/// coefficient bytes and one fused encode of L * M payload multiply-adds
/// give the bytes that make_s_payloads(plan, recover_all_y(...)) gives
/// with Alice's code, phase2_code(M, L), taken from the announcements'
/// lengths.
[[nodiscard]] ReceiverOutput receiver_round(
    const packet::Announcement& y_announcement,
    const packet::Announcement& s_announcement,
    std::span<const packet::ConstByteSpan> x,
    std::span<const packet::ConstByteSpan> z, std::size_t payload_size,
    packet::PayloadArena& arena);

}  // namespace thinair::core
