#include "core/round.h"

#include <stdexcept>

#include "channel/interference.h"
#include "net/reliable.h"
#include "packet/serialize.h"

namespace thinair::core {

RoundContext open_round(net::Medium& medium, packet::NodeId alice,
                        packet::RoundId round, std::size_t n,
                        std::size_t payload_bytes,
                        packet::PayloadArena& arena) {
  if (payload_bytes == 0)
    throw std::invalid_argument("open_round: payload_bytes == 0");
  const std::uint64_t eve_mask = medium.eavesdropper_set().mask();

  std::vector<packet::NodeId> receivers;
  for (packet::NodeId t : medium.terminals())
    if (t != alice) receivers.push_back(t);

  RoundContext ctx{
      .alice = alice,
      .receivers = receivers,
      .x_payloads = std::vector<packet::ConstByteSpan>(n),
      .rx_payloads = std::vector<std::vector<packet::ConstByteSpan>>(
          receivers.size(), std::vector<packet::ConstByteSpan>(n)),
      .rx_indices = std::vector<std::vector<std::uint32_t>>(receivers.size()),
      .eve_indices = {},
      .slot_of = std::vector<std::size_t>(n, 0),
      .table = ReceptionTable(alice, std::move(receivers), n),
  };
  for (auto& indices : ctx.rx_indices) indices.reserve(n);
  ctx.eve_indices.reserve(n);

  // Step 1: N random payloads, broadcast once each. Payload bytes are
  // carved from the round arena (one bump per packet, contiguous across
  // the round); the frame reuses one Packet whose payload buffer keeps
  // its capacity across all N transmissions and the reports after them —
  // this loop dominates every experiment.
  packet::Packet pkt{.kind = packet::Kind::kData,
                     .source = alice,
                     .round = round,
                     .seq = packet::PacketSeq{0},
                     .payload = {}};
  pkt.payload.reserve(payload_bytes);
  for (std::uint32_t i = 0; i < n; ++i) {
    const packet::ByteSpan body = arena.alloc_uninit(payload_bytes);
    medium.rng().fill(body);
    ctx.x_payloads[i] = body;

    pkt.seq = packet::PacketSeq{i};
    pkt.payload.assign(body.begin(), body.end());
    ctx.slot_of[i] = medium.slot() % channel::InterferenceSchedule::kPatterns;
    const net::NodeSet delivered =
        medium.transmit(alice, pkt, net::TrafficClass::kData).delivered;

    for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
      if (delivered.contains(ctx.receivers[ri])) {
        ctx.rx_payloads[ri][i] = ctx.x_payloads[i];
        ctx.rx_indices[ri].push_back(i);
      }
    }
    // Union view: one antenna hearing it is enough.
    if ((delivered.mask() & eve_mask) != 0) ctx.eve_indices.push_back(i);
  }

  // Step 2: reliable reception reports. Each receiver's indices are lent
  // to the report for encoding and taken back, so nothing is copied.
  pkt.kind = packet::Kind::kReport;
  pkt.seq = packet::PacketSeq{0};
  packet::ReceptionReport report{.universe = static_cast<std::uint32_t>(n),
                                 .received = {}};
  for (std::size_t ri = 0; ri < ctx.receivers.size(); ++ri) {
    ctx.table.set_received(ctx.receivers[ri], ctx.rx_indices[ri]);
    report.received = std::move(ctx.rx_indices[ri]);
    packet::encode_into(report, pkt.payload);
    ctx.rx_indices[ri] = std::move(report.received);
    pkt.source = ctx.receivers[ri];
    net::reliable_broadcast(medium, ctx.receivers[ri], pkt,
                            net::TrafficClass::kControl);
  }

  return ctx;
}

}  // namespace thinair::core
