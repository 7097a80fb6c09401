#include "net/reliable.h"

#include <bit>
#include <stdexcept>

namespace thinair::net {

namespace {

// The acknowledgement frame of a terminal that newly received an attempt;
// acks are short and assumed reliable (they carry no secret-relevant
// content), so only their bytes and airtime are charged.
void charge_ack(Medium& medium, const ReliableParams& params) {
  const std::size_t wire =
      packet::Packet::header_size() + params.ack_payload_bytes;
  medium.ledger().add(TrafficClass::kAck, wire, medium.frame_airtime_s(wire));
}

}  // namespace

ReliableResult reliable_broadcast(Medium& medium, packet::NodeId source,
                                  const packet::Packet& pkt, TrafficClass cls,
                                  ReliableParams params) {
  const std::uint64_t eves = medium.eavesdropper_set().mask();
  // Every terminal but the sender must ack (delivery sets exclude it).
  std::uint64_t pending = medium.terminal_set().mask();
  if (source.value < 64) pending &= ~(std::uint64_t{1} << source.value);

  ReliableResult result;
  while (pending != 0) {
    if (result.attempts >= params.max_attempts)
      throw std::runtime_error(
          "reliable_broadcast: channel too lossy, attempts exhausted");
    ++result.attempts;

    const std::uint64_t heard =
        medium.transmit(source, pkt, cls).delivered.mask();
    const std::uint64_t acked = heard & pending;
    for (int k = std::popcount(acked); k > 0; --k) charge_ack(medium, params);
    pending &= ~acked;
    // Any eavesdropper that happened to receive an attempt is noted, though
    // the conservative model treats the content as public anyway.
    result.delivered |= NodeSet(acked | (heard & eves));

    if (pending != 0 && params.slot_backoff) medium.wait_for_next_slot();
  }

  return result;
}

ReliableResult reliable_unicast(Medium& medium, packet::NodeId source,
                                packet::NodeId dest, const packet::Packet& pkt,
                                TrafficClass cls, ReliableParams params) {
  if (!medium.is_attached(dest))
    throw std::invalid_argument("reliable_unicast: unknown destination");

  ReliableResult result;
  while (!result.delivered.contains(dest)) {
    if (result.attempts >= params.max_attempts)
      throw std::runtime_error(
          "reliable_unicast: channel too lossy, attempts exhausted");
    ++result.attempts;

    const Medium::TxResult tx = medium.transmit(source, pkt, cls);
    if (tx.delivered.contains(dest)) {
      result.delivered.insert(dest);
      charge_ack(medium, params);
    }
    result.delivered |=
        NodeSet(tx.delivered.mask() & medium.eavesdropper_set().mask());

    if (!result.delivered.contains(dest) && params.slot_backoff)
      medium.wait_for_next_slot();
  }

  return result;
}

}  // namespace thinair::net
