#pragma once
// Reliable broadcast (Sec. 2: "it ensures that all other terminals receive
// it, e.g., through acknowledgments and retransmissions; to be
// conservative, we assume that Eve receives all reliably broadcast
// packets").
//
// Implementation: the sender retransmits until every terminal has the
// frame; after each attempt, each terminal that newly received the frame
// answers with a short acknowledgement (charged to the ledger). The
// secrecy analysis treats every reliably broadcast content as public.

#include "net/medium.h"

namespace thinair::net {

struct ReliableParams {
  std::size_t max_attempts = 1000;
  std::size_t ack_payload_bytes = 2;
  /// Back off to the next interference slot after a failed attempt instead
  /// of retrying into the same noise pattern. Costs idle time, saves the
  /// transmitted bytes the efficiency metric counts.
  bool slot_backoff = true;
};

struct ReliableResult {
  unsigned attempts = 0;
  NodeSet delivered;  // all terminals, plus any eavesdropper that drew lucky
};

/// Reliably broadcast `pkt` from `source` to every terminal attached to
/// `medium`. Throws std::runtime_error when max_attempts is exhausted
/// (possible only on pathological channels).
ReliableResult reliable_broadcast(Medium& medium, packet::NodeId source,
                                  const packet::Packet& pkt, TrafficClass cls,
                                  ReliableParams params = {});

/// Reliably deliver `pkt` from `source` to the single terminal `dest`
/// (802.11-style acked unicast). On a broadcast medium everyone may still
/// overhear the frames, and the conservative model treats the content as
/// public; used by the unicast baseline of Figure 1.
ReliableResult reliable_unicast(Medium& medium, packet::NodeId source,
                                packet::NodeId dest, const packet::Packet& pkt,
                                TrafficClass cls, ReliableParams params = {});

}  // namespace thinair::net
