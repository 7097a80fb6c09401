#pragma once
// Traced replay of a protocol session.
//
// Re-runs the round flow of core::GroupSecretSession::run() (or of
// core::UnicastSession::run()) call for call through the public
// functions of core/, net/, gf/, packet/ and analysis/, with a span
// around each call. The call sequence and arguments are those of the
// session classes, so the medium's RNG stream is consumed identically
// and the replay yields the same secret bytes, round outcomes, ledger
// and airtime; the traced runs check that against the real classes.

#include <cstdint>

#include "core/session.h"
#include "net/medium.h"
#include "trace.h"

namespace thinbench {

/// Counts accumulated across replayed rounds.
struct ReplayCounts {
  std::uint64_t rounds = 0;
  std::uint64_t transmits = 0;          // frames put on the medium
  std::uint64_t reliable_packets = 0;   // reliable_* calls made by the replay
  std::uint64_t reliable_attempts = 0;  // their summed attempts
  double gf_bytes = 0.0;                // payload bytes the GF kernels touch
};

/// GroupSecretSession::run() on `medium` with `config`, traced.
[[nodiscard]] thinair::core::SessionResult replay_group(
    thinair::net::Medium& medium, const thinair::core::SessionConfig& config,
    Tracer& tracer, std::uint64_t unit, ReplayCounts& counts);

/// UnicastSession::run() on `medium` with `config`, traced.
[[nodiscard]] thinair::core::SessionResult replay_unicast(
    thinair::net::Medium& medium, const thinair::core::SessionConfig& config,
    Tracer& tracer, std::uint64_t unit, ReplayCounts& counts);

/// Byte-for-byte equality of two session results: secret, ledger,
/// airtime and every round outcome field.
[[nodiscard]] bool same_result(const thinair::core::SessionResult& a,
                               const thinair::core::SessionResult& b);

}  // namespace thinbench
