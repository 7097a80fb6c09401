#pragma once
// The full secret-agreement protocol, end to end (Sec. 3).
//
// A GroupSecretSession drives one or more protocol rounds over a Medium:
//
//   per round (one terminal playing Alice; the role rotates by default —
//   Sec. 3.2's "avoiding the worst-case scenario"):
//     1. Alice broadcasts N random x-packets over the lossy channel.
//     2. Every other terminal reliably broadcasts its reception report.
//     3. Alice builds the y-pool (phase 1) and reliably broadcasts the
//        y identities.
//     4. Alice reliably broadcasts the M - L z-packets (contents) and the
//        s identities (phase 2); every terminal decodes the group secret.
//
// The session wraps the protocol core (core/protocol.h): it moves Alice's
// broadcasts over the medium, and every terminal runs the live client's
// receiver step on the x-payloads it actually received and the public
// announcements — rebuilding its y-packets, repairing the missing ones from
// the z-contents and evaluating the s-packets — and must agree with Alice
// on the secret bit-for-bit. In parallel the session
// accumulates Eve's exact view (analysis::EveView) and scores each round's
// reliability, the paper's Figure-2 metric.

#include <cstdint>
#include <vector>

#include "analysis/leakage.h"
#include "core/estimator.h"
#include "core/pool.h"
#include "core/protocol.h"
#include "core/round.h"
#include "net/medium.h"
#include "packet/packet.h"

namespace thinair::core {

struct SessionConfig {
  std::size_t x_packets_per_round = 90;  // N; 90 spreads over all 9 patterns
  std::size_t payload_bytes = packet::kPaperPayloadBytes;  // 100 B
  std::size_t rounds = 0;        // 0 = one round per terminal
  bool rotate_alice = true;      // Sec. 3.2's worst-case avoidance
  EstimatorSpec estimator;       // Sec. 3.3 strategy (default loo-fraction)
  PoolStrategy pool_strategy = PoolStrategy::kClassShared;
  /// Backing storage for all round payloads. When set, the session resets
  /// and reuses it at every round boundary (so a sweep worker running
  /// thousands of sessions allocates its payload memory once); the arena
  /// must outlive the session and not be shared with a concurrently
  /// running one. When null the session owns a private arena.
  packet::PayloadArena* arena = nullptr;
};

/// Outcome of a single round.
struct RoundOutcome {
  packet::NodeId alice;
  std::size_t universe = 0;                // N
  std::vector<std::size_t> pairwise_size;  // M_i, aligned with receivers
  std::size_t pool_size = 0;               // M
  std::size_t group_packets = 0;           // L
  std::size_t secret_bits = 0;             // L * payload * 8
  /// Distinct data-plane packets the algorithm fundamentally needs
  /// (N + (M - L) for the group algorithm, N + (n-2)L for unicast) —
  /// retransmissions excluded; this is what the Figure-1 forms count.
  std::size_t data_packets = 0;
  analysis::LeakageReport leakage;         // vs. the (union) eavesdropper
};

/// Outcome of a whole session.
struct SessionResult {
  std::vector<RoundOutcome> rounds;
  std::vector<std::uint8_t> secret;  // concatenated s-payloads, all rounds
  net::Ledger ledger;                // every byte transmitted in this run
  double duration_s = 0.0;           // virtual airtime incl. gaps

  [[nodiscard]] std::size_t secret_bits() const { return secret.size() * 8; }

  /// Equivocation-weighted reliability across rounds (the per-experiment
  /// number aggregated in Figure 2).
  [[nodiscard]] double reliability() const;

  /// Paper's efficiency: secret bits / all transmitted bits.
  [[nodiscard]] double efficiency() const;

  /// Secret bits / data-plane payload bits (x- and z-payloads only) — the
  /// quantity the Figure-1 closed forms model.
  [[nodiscard]] double data_efficiency(std::size_t payload_bytes) const;

  /// Secret generation rate in bits per second of channel time.
  [[nodiscard]] double secret_rate_bps() const;
};

/// The lifecycle both simulator sessions share — argument validation, the
/// Alice-rotation run loop and the owned-or-borrowed round arena — around
/// one round of the subclass's algorithm.
class SimSession {
 public:
  /// The medium must have >= 2 attached terminals. Eavesdroppers attached
  /// to the medium are scored as one (multi-antenna) adversary holding the
  /// union of their receptions.
  SimSession(net::Medium& medium, SessionConfig config);
  virtual ~SimSession() = default;
  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  /// Restore construction-equivalent state on a new medium/config: the
  /// round counter restarts at 0 and the owned arena is rewound (blocks
  /// retained, then trimmed to the watermark policy), so a pooled session
  /// behaves bit-for-bit like a freshly constructed one — the contract
  /// runtime::ObjectPool relies on and the golden-NDJSON suites pin.
  /// Validates before mutating: on throw the previous state is intact.
  void reset(net::Medium& medium, SessionConfig config);

  /// Run the configured number of rounds and return the result. May be
  /// called repeatedly; each call continues the same virtual clock and
  /// round counter but returns an independent result (ledger delta of
  /// this run only). reset() restarts the lifecycle instead.
  SessionResult run();

  [[nodiscard]] const SessionConfig& config() const { return config_; }

 protected:
  /// A round as Alice opens it: phase 1 steps 1-2 on the medium, into the
  /// rewound round arena, then her `step` (alice_round, or the unicast
  /// baseline's phase 1) under the configured estimator and pool strategy.
  struct Opened {
    RoundContext ctx;
    AliceRound alice;
  };
  [[nodiscard]] Opened open(packet::NodeId alice, packet::RoundId round,
                            decltype(&alice_round) step);

  /// Reliably broadcast one of Alice's frames: `scratch_pkt_`, whose
  /// payload the caller has filled, as `kind`/`seq` of `round`.
  void broadcast(packet::NodeId alice, packet::RoundId round,
                 packet::Kind kind, std::uint32_t seq, net::TrafficClass cls);

  /// The outcome fields both algorithms fill alike.
  [[nodiscard]] RoundOutcome outcome_of(const RoundContext& ctx,
                                        const YPool& pool) const;

  [[nodiscard]] packet::PayloadArena& arena() {
    return config_.arena != nullptr ? *config_.arena : owned_arena_;
  }

  net::Medium* medium_;  // never null; reset() rebinds
  SessionConfig config_;
  // Round-loop scratch reused across rounds and (via reset()) across
  // pooled lifetimes: contents are rewritten every use, only capacity
  // survives, so reuse cannot change observable bytes.
  packet::Packet scratch_pkt_;

 private:
  virtual RoundOutcome run_round(packet::NodeId alice, packet::RoundId round,
                                 SessionResult& result) = 0;

  packet::PayloadArena owned_arena_;  // used when config_.arena is null
  std::uint32_t next_round_ = 0;
  std::vector<std::size_t> receiver_cells_;  // scratch, like scratch_pkt_
};

/// The paper's group algorithm: phase 1, then phase 2's coded
/// redistribution.
class GroupSecretSession final : public SimSession {
 public:
  using SimSession::SimSession;

 private:
  RoundOutcome run_round(packet::NodeId alice, packet::RoundId round,
                         SessionResult& result) override;
};

}  // namespace thinair::core
