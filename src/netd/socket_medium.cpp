#include "netd/socket_medium.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace thinair::netd {

namespace {

double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WirePhase phase_of(net::TrafficClass cls) {
  switch (cls) {
    case net::TrafficClass::kData: return WirePhase::kXData;
    case net::TrafficClass::kCoded: return WirePhase::kZCoded;
    default: return WirePhase::kReport;  // any control-accounted phase
  }
}

}  // namespace

HubBackedMedium::HubBackedMedium(std::uint64_t session_id, channel::Rng rng,
                                 net::MacParams params)
    : net::Medium(rng, params), session_id_(session_id) {}

void HubBackedMedium::attach(packet::NodeId node, net::Role role) {
  if (joined_)
    throw std::logic_error(
        "HubBackedMedium: cannot attach after the first transmit");
  if (node.value >= 32)
    throw std::invalid_argument(
        "HubBackedMedium: node id must be < 32 (delivery-mask width)");
  net::Medium::attach(node, role);
  pending_.emplace_back(node.value, role == net::Role::kEavesdropper);
}

std::vector<std::uint8_t> HubBackedMedium::make_attach(std::uint16_t node,
                                                       bool eve) const {
  Frame f;
  f.header.type = static_cast<std::uint8_t>(FrameType::kAttach);
  f.header.session = session_id_;
  f.header.node = node;
  f.header.flags = eve ? kFlagEve : 0;
  f.header.aux = static_cast<std::uint32_t>(pending_.size());
  return encode(f);
}

net::Medium::TxResult HubBackedMedium::transmit(packet::NodeId source,
                                                const packet::Packet& pkt,
                                                net::TrafficClass cls) {
  if (!is_attached(source))
    throw std::invalid_argument("Medium::transmit: unknown source");
  if (!joined_) {
    if (pending_.size() < 2)
      throw std::logic_error("HubBackedMedium: need >= 2 attached nodes");
    std::sort(pending_.begin(), pending_.end());
    mask_order_.clear();
    for (const auto& [id, eve] : pending_) mask_order_.push_back(id);
    join();
    joined_ = true;
  }

  Frame f;
  f.header.type = static_cast<std::uint8_t>(FrameType::kData);
  f.header.flags = kFlagNoRelay;
  f.header.phase = static_cast<std::uint8_t>(phase_of(cls));
  f.header.node = source.value;
  f.header.session = session_id_;
  f.header.round = pkt.round.value;
  // Transport-level sequence: unique per transmit so reliable-broadcast
  // *retries* draw fresh erasures, while ARQ *retransmits* (same seq) hit
  // the hub's ack cache and stay draw-neutral.
  f.header.seq = next_wire_seq_++;
  f.payload = pkt.payload;

  const std::uint32_t mask = exchange(encode(f), source.value, f.header.seq);

  TxResult result;
  result.airtime_s = frame_airtime_s(pkt.wire_size());
  for (std::size_t i = 0; i < mask_order_.size(); ++i) {
    if (mask_order_[i] == source.value) continue;
    if ((mask & (1u << i)) != 0)
      result.delivered.insert(packet::NodeId{mask_order_[i]});
  }
  account_transmit(pkt, cls, result);
  return result;
}

// ---------------------------------------------------------------- HubMedium

HubMedium::HubMedium(SessionHub& hub, std::uint64_t session_id,
                     channel::Rng rng, net::MacParams params)
    : HubBackedMedium(session_id, rng, params), hub_(hub) {}

std::uint32_t HubMedium::feed_expect(const std::vector<std::uint8_t>& datagram,
                                     FrameType want, std::uint16_t node,
                                     std::uint32_t wire_seq) {
  std::vector<Outgoing> out;
  hub_.on_datagram(datagram, 0.0, out);
  for (const Outgoing& o : out) {
    const DecodeResult d = decode(o.datagram);
    if (!d.frame.has_value()) continue;
    const Frame& f = *d.frame;
    const auto type = static_cast<FrameType>(f.header.type);
    if (type == FrameType::kError)
      throw std::runtime_error("HubMedium: hub error: " +
                               std::string(f.payload.begin(),
                                           f.payload.end()));
    if (type == want && f.header.node == node &&
        (want != FrameType::kTxReport || f.header.seq == wire_seq))
      return f.header.aux;
  }
  throw std::logic_error("HubMedium: hub did not produce the expected reply");
}

void HubMedium::join() {
  // mask_order() is the sorted roster; replay the sorted (node, eve) list.
  for (std::uint16_t id : mask_order()) {
    const bool eve = eavesdropper_set().contains(packet::NodeId{id});
    feed_expect(make_attach(id, eve), FrameType::kAttachOk, id, 0);
  }
}

std::uint32_t HubMedium::exchange(const std::vector<std::uint8_t>& datagram,
                                  std::uint16_t node,
                                  std::uint32_t wire_seq) {
  return feed_expect(datagram, FrameType::kTxReport, node, wire_seq);
}

// ------------------------------------------------------------- SocketMedium

SocketMedium::SocketMedium(std::string host, std::uint16_t port,
                           std::uint64_t session_id, channel::Rng rng,
                           net::MacParams params, double rto_s,
                           double deadline_s)
    : HubBackedMedium(session_id, rng, params),
      // Wildcard bind: `host` may be another box, and a loopback-bound
      // socket cannot send off-box.
      socket_(UdpSocket::bind("0.0.0.0", 0)),
      daemon_(make_addr(host, port)),
      rto_s_(rto_s),
      deadline_s_(deadline_s) {}

std::uint32_t SocketMedium::await(const std::vector<std::uint8_t>& datagram,
                                  FrameType want, std::uint16_t node,
                                  std::uint32_t wire_seq) {
  const double start = monotonic_s();
  double last_send = -1.0;
  std::vector<std::uint8_t> buf;
  sockaddr_in from{};
  while (true) {
    const double now = monotonic_s();
    if (now - start > deadline_s_)
      throw std::runtime_error("SocketMedium: daemon unreachable (deadline)");
    if (last_send < 0.0 || now - last_send >= rto_s_) {
      (void)socket_.send_to(daemon_, datagram);
      last_send = now;
    }
    if (!socket_.wait_readable(5)) continue;
    while (socket_.recv_from(buf, from)) {
      const DecodeResult d = decode(buf);
      if (!d.frame.has_value()) continue;
      const Frame& f = *d.frame;
      if (f.header.session != session_id()) continue;
      const auto type = static_cast<FrameType>(f.header.type);
      if (type == FrameType::kError)
        throw std::runtime_error("SocketMedium: hub error: " +
                                 std::string(f.payload.begin(),
                                             f.payload.end()));
      if (type == FrameType::kExpired)
        throw std::runtime_error("SocketMedium: session expired at hub");
      if (type == want && f.header.node == node &&
          (want != FrameType::kTxReport || f.header.seq == wire_seq))
        return f.header.aux;
    }
  }
}

void SocketMedium::join() {
  for (std::uint16_t id : mask_order()) {
    const bool eve = eavesdropper_set().contains(packet::NodeId{id});
    await(make_attach(id, eve), FrameType::kAttachOk, id, 0);
  }
}

std::uint32_t SocketMedium::exchange(const std::vector<std::uint8_t>& datagram,
                                     std::uint16_t node,
                                     std::uint32_t wire_seq) {
  return await(datagram, FrameType::kTxReport, node, wire_seq);
}

}  // namespace thinair::netd
