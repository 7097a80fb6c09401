#pragma once
// net::Medium implementations backed by the session hub, so the
// *unmodified* protocol stack (open_round, GroupSecretSession,
// reliable_broadcast) runs with the daemon deciding who hears what.
//
// Both media drive all terminals from one process (the in-process
// session's model) and use the hub purely as the erasure-drawing,
// airtime-accounting channel: every transmit goes up as a kData frame
// flagged kFlagNoRelay — the hub draws the per-peer erasures from the
// session's seeded Rng, charges the session ledger, and answers with the
// delivery mask; nothing is relayed because the driving process already
// holds every payload. Each transmit carries a fresh wire-level sequence
// number so reliable-broadcast retries get fresh draws (the hub's ack
// cache otherwise absorbs same-key retransmits by design).
//
//   HubMedium    calls a SessionHub directly — the in-process reference.
//   SocketMedium speaks to a live thinaird over UDP with stop-and-wait
//                ARQ; retransmits reuse the wire seq, so the hub's ack
//                cache makes them draw-neutral.
//
// Under the same hub seed, session id and roster, both media produce the
// identical delivery-mask sequence — which is exactly how the e2e test
// checks a daemon-backed key agreement against the in-process simulation.

#include <cstdint>
#include <string>
#include <vector>

#include "net/medium.h"
#include "netd/hub.h"
#include "netd/udp.h"

namespace thinair::netd {

/// Common drive-all logic: roster bookkeeping, frame construction and
/// delivery-mask decoding. Subclasses implement one round trip.
class HubBackedMedium : public net::Medium {
 public:
  void attach(packet::NodeId node, net::Role role) override;

 protected:
  HubBackedMedium(std::uint64_t session_id, channel::Rng rng,
                  net::MacParams params);

  TxResult transmit(packet::NodeId source, const packet::Packet& pkt,
                    net::TrafficClass cls) final;

  /// One hub round trip: send `datagram`, return the matching kTxReport's
  /// delivery mask (or the attach-phase frames' progression). Implemented
  /// synchronously (HubMedium) or over a socket (SocketMedium).
  virtual std::uint32_t exchange(const std::vector<std::uint8_t>& datagram,
                                 std::uint16_t node,
                                 std::uint32_t wire_seq) = 0;

  /// Attach the full roster at the hub (first transmit triggers this).
  virtual void join() = 0;

  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }
  /// Ascending node-id roster (the hub's mask bit order), eves included.
  [[nodiscard]] const std::vector<std::uint16_t>& mask_order() const {
    return mask_order_;
  }

  [[nodiscard]] std::vector<std::uint8_t> make_attach(std::uint16_t node,
                                                      bool eve) const;

 private:
  std::uint64_t session_id_;
  bool joined_ = false;
  std::vector<std::uint16_t> mask_order_;
  std::vector<std::pair<std::uint16_t, bool>> pending_;  // (node, eve)
  std::uint32_t next_wire_seq_ = 0;
};

/// The in-process reference: same hub code, no sockets.
class HubMedium final : public HubBackedMedium {
 public:
  /// The hub must outlive the medium.
  HubMedium(SessionHub& hub, std::uint64_t session_id, channel::Rng rng,
            net::MacParams params = {});

 private:
  std::uint32_t exchange(const std::vector<std::uint8_t>& datagram,
                         std::uint16_t node, std::uint32_t wire_seq) override;
  void join() override;
  /// Feed a datagram to the hub and scan the replies for (type, node, seq).
  std::uint32_t feed_expect(const std::vector<std::uint8_t>& datagram,
                            FrameType want, std::uint16_t node,
                            std::uint32_t wire_seq);

  SessionHub& hub_;
};

/// The live-daemon client: every transmit is one ARQ round trip over UDP.
class SocketMedium final : public HubBackedMedium {
 public:
  SocketMedium(std::string host, std::uint16_t port, std::uint64_t session_id,
               channel::Rng rng, net::MacParams params = {},
               double rto_s = 0.05, double deadline_s = 30.0);

 private:
  std::uint32_t exchange(const std::vector<std::uint8_t>& datagram,
                         std::uint16_t node, std::uint32_t wire_seq) override;
  void join() override;
  std::uint32_t await(const std::vector<std::uint8_t>& datagram,
                      FrameType want, std::uint16_t node,
                      std::uint32_t wire_seq);

  UdpSocket socket_;
  sockaddr_in daemon_;
  double rto_s_;
  double deadline_s_;
};

}  // namespace thinair::netd
