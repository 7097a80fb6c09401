#pragma once
// The unicast baseline of Sec. 3.2 / Figure 1.
//
// After phase 1, Alice holds a pair-wise secret with each terminal. The
// naive way to a group secret is to pick one (the first terminal's) as the
// group secret and unicast it to every other terminal, one-time-padded
// with that terminal's own pair-wise secret. Correct and perfectly secret
// when the pads are — but it costs (n - 2) * L extra packet transmissions,
// so its efficiency L / (N + (n-2)L) collapses as n grows. That collapse
// is the motivation for phase 2's coded redistribution.

#include "core/session.h"

namespace thinair::core {

/// Runs phase 1 identically to GroupSecretSession (the core's Alice and
/// receiver phase-1 halves), then distributes the group secret by
/// pad-and-unicast instead of phase 2. Produces the same result/metrics
/// types so benches can compare the two algorithms side by side.
class UnicastSession final : public SimSession {
 public:
  using SimSession::SimSession;

 private:
  RoundOutcome run_round(packet::NodeId alice, packet::RoundId round,
                         SessionResult& result) override;
};

}  // namespace thinair::core
