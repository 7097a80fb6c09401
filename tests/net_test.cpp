// Broadcast medium, delivery sets, ledger accounting and reliable
// broadcast/unicast.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "channel/erasure.h"
#include "net/medium.h"
#include "net/reliable.h"

namespace thinair::net {
namespace {

packet::Packet data_packet(std::uint16_t src, std::size_t bytes) {
  return packet::Packet{.kind = packet::Kind::kData,
                        .source = packet::NodeId{src},
                        .round = packet::RoundId{0},
                        .seq = packet::PacketSeq{0},
                        .payload = packet::Payload(bytes, 0xAB)};
}

TEST(NodeSet, InsertContainsSize) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  s.insert(packet::NodeId{3});
  s.insert(packet::NodeId{3});
  s.insert(packet::NodeId{10});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(packet::NodeId{3}));
  EXPECT_FALSE(s.contains(packet::NodeId{4}));
  EXPECT_THROW(s.insert(packet::NodeId{64}), std::out_of_range);
}

TEST(Ledger, AccumulatesByClass) {
  Ledger l;
  l.add(TrafficClass::kData, 100, 0.001);
  l.add(TrafficClass::kData, 50, 0.0005);
  l.add(TrafficClass::kAck, 10, 0.0001);
  EXPECT_EQ(l.bytes(TrafficClass::kData), 150u);
  EXPECT_EQ(l.frames(TrafficClass::kData), 2u);
  EXPECT_EQ(l.total_bytes(), 160u);
  EXPECT_EQ(l.total_bits(), 1280u);
  EXPECT_NEAR(l.total_airtime_s(), 0.0016, 1e-12);
  EXPECT_EQ(l.data_plane_bytes(), 150u);
}

TEST(Ledger, SinceComputesDelta) {
  Ledger l;
  l.add(TrafficClass::kData, 100, 0.1);
  const Ledger snap = l;
  l.add(TrafficClass::kCoded, 30, 0.05);
  const Ledger delta = l.since(snap);
  EXPECT_EQ(delta.bytes(TrafficClass::kData), 0u);
  EXPECT_EQ(delta.bytes(TrafficClass::kCoded), 30u);

  Ledger unrelated;
  unrelated.add(TrafficClass::kData, 500, 1.0);
  EXPECT_THROW((void)l.since(unrelated), std::invalid_argument);
}

TEST(Medium, PerfectChannelDeliversToAll) {
  channel::IidErasure ch(0.0);
  SimMedium medium(ch, channel::Rng(1));
  for (std::uint16_t i = 0; i < 4; ++i)
    medium.attach(packet::NodeId{i}, Role::kTerminal);
  const auto tx = medium.transmit(packet::NodeId{0}, data_packet(0, 100),
                                  TrafficClass::kData);
  EXPECT_EQ(tx.delivered.size(), 3u);  // everyone except the sender
  EXPECT_FALSE(tx.delivered.contains(packet::NodeId{0}));
}

TEST(Medium, DeadChannelDeliversToNone) {
  channel::IidErasure ch(1.0);
  SimMedium medium(ch, channel::Rng(2));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kTerminal);
  const auto tx = medium.transmit(packet::NodeId{0}, data_packet(0, 10),
                                  TrafficClass::kData);
  EXPECT_TRUE(tx.delivered.empty());
}

TEST(Medium, ClockAdvancesByAirtime) {
  channel::IidErasure ch(0.0);
  MacParams mac;
  SimMedium medium(ch, channel::Rng(3), mac);
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kTerminal);
  const double before = medium.now();
  const auto tx = medium.transmit(packet::NodeId{0}, data_packet(0, 100),
                                  TrafficClass::kData);
  const double want_airtime =
      mac.per_frame_overhead_s + (100.0 + 16.0) * 8.0 / mac.data_rate_bps;
  EXPECT_NEAR(tx.airtime_s, want_airtime, 1e-12);
  EXPECT_NEAR(medium.now() - before, want_airtime + mac.inter_frame_gap_s,
              1e-12);
}

TEST(Medium, SlotDerivedFromClock) {
  channel::IidErasure ch(0.0);
  MacParams mac;
  mac.slot_duration_s = 0.010;
  SimMedium medium(ch, channel::Rng(4), mac);
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  EXPECT_EQ(medium.slot(), 0u);
  medium.wait(0.025);
  EXPECT_EQ(medium.slot(), 2u);
  medium.wait_for_next_slot();
  EXPECT_EQ(medium.slot(), 3u);
}

TEST(Medium, LedgerChargesWireBytes) {
  channel::IidErasure ch(0.0);
  SimMedium medium(ch, channel::Rng(5));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kTerminal);
  medium.transmit(packet::NodeId{0}, data_packet(0, 100), TrafficClass::kData);
  EXPECT_EQ(medium.ledger().bytes(TrafficClass::kData),
            100u + packet::Packet::header_size());
}

TEST(Medium, TransmitReportsDeliveryAndAdvancesSlot) {
  channel::IidErasure ch(0.0);
  MacParams mac;
  mac.slot_duration_s = 5e-4;  // shorter than one 42-byte frame
  SimMedium medium(ch, channel::Rng(6), mac);
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kTerminal);
  EXPECT_EQ(medium.slot(), 0u);
  const Medium::TxResult tx = medium.transmit(
      packet::NodeId{0}, data_packet(0, 42), TrafficClass::kData);
  EXPECT_TRUE(tx.delivered.contains(packet::NodeId{1}));
  EXPECT_FALSE(tx.delivered.contains(packet::NodeId{0}));  // not the sender
  EXPECT_DOUBLE_EQ(tx.airtime_s, medium.frame_airtime_s(
                                     42 + packet::Packet::header_size()));
  EXPECT_GT(medium.slot(), 0u);
}

TEST(Medium, RejectsUnknownSourceAndReattach) {
  channel::IidErasure ch(0.0);
  SimMedium medium(ch, channel::Rng(7));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  EXPECT_THROW(medium.attach(packet::NodeId{0}, Role::kTerminal),
               std::invalid_argument);
  EXPECT_THROW(medium.transmit(packet::NodeId{9}, data_packet(9, 1),
                               TrafficClass::kData),
               std::invalid_argument);
}

TEST(Medium, RolesSeparateTerminalsFromEavesdroppers) {
  channel::IidErasure ch(0.0);
  SimMedium medium(ch, channel::Rng(8));
  medium.attach(packet::NodeId{5}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kEavesdropper);
  medium.attach(packet::NodeId{2}, Role::kTerminal);
  const std::vector<packet::NodeId> terminals(medium.terminals().begin(),
                                              medium.terminals().end());
  EXPECT_EQ(terminals, (std::vector{packet::NodeId{5}, packet::NodeId{2}}));
  EXPECT_EQ(medium.eavesdroppers().size(), 1u);
  EXPECT_EQ(medium.eavesdroppers()[0], packet::NodeId{1});
  EXPECT_EQ(medium.terminal_set().mask(), (1u << 5) | (1u << 2));
  EXPECT_EQ(medium.eavesdropper_set().mask(), 1u << 1);
  EXPECT_TRUE(medium.is_attached(packet::NodeId{1}));
  EXPECT_FALSE(medium.is_attached(packet::NodeId{0}));
}

// Ids >= 64 do not fit a delivery set; attach() must refuse them up front
// rather than let the first transmit throw mid-round.
TEST(Medium, AttachRejectsIdsOutsideTheNodeSetRange) {
  channel::IidErasure ch(0.0);
  SimMedium medium(ch, channel::Rng(8));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  EXPECT_THROW(medium.attach(packet::NodeId{64}, Role::kTerminal),
               std::out_of_range);
  EXPECT_THROW(medium.attach(packet::NodeId{200}, Role::kEavesdropper),
               std::out_of_range);
  EXPECT_FALSE(medium.is_attached(packet::NodeId{64}));
  EXPECT_EQ(medium.terminals().size(), 1u);
  EXPECT_TRUE(medium.eavesdroppers().empty());

  medium.attach(packet::NodeId{63}, Role::kTerminal);
  const auto tx = medium.transmit(packet::NodeId{0}, data_packet(0, 10),
                                  TrafficClass::kData);
  EXPECT_EQ(tx.delivered.mask(), std::uint64_t{1} << 63);
}

TEST(Reliable, BroadcastReachesAllTerminals) {
  channel::IidErasure ch(0.5);
  SimMedium medium(ch, channel::Rng(9));
  for (std::uint16_t i = 0; i < 5; ++i)
    medium.attach(packet::NodeId{i}, Role::kTerminal);
  const auto result = reliable_broadcast(medium, packet::NodeId{0},
                                         data_packet(0, 100),
                                         TrafficClass::kCoded);
  for (std::uint16_t i = 1; i < 5; ++i)
    EXPECT_TRUE(result.delivered.contains(packet::NodeId{i}));
  EXPECT_GE(result.attempts, 1u);
}

TEST(Reliable, AttemptsCountEveryFrameOnTheAir) {
  channel::IidErasure ch(0.6);
  SimMedium medium(ch, channel::Rng(10));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kTerminal);
  const ReliableResult r = reliable_broadcast(
      medium, packet::NodeId{0}, data_packet(0, 20), TrafficClass::kControl);
  EXPECT_EQ(medium.ledger().frames(TrafficClass::kControl), r.attempts);
}

TEST(Reliable, AcksAreCharged) {
  channel::IidErasure ch(0.0);
  SimMedium medium(ch, channel::Rng(11));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kTerminal);
  medium.attach(packet::NodeId{2}, Role::kTerminal);
  reliable_broadcast(medium, packet::NodeId{0}, data_packet(0, 10),
                     TrafficClass::kControl);
  EXPECT_EQ(medium.ledger().frames(TrafficClass::kAck), 2u);
}

TEST(Reliable, ExhaustionThrows) {
  channel::IidErasure ch(1.0);
  SimMedium medium(ch, channel::Rng(12));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  medium.attach(packet::NodeId{1}, Role::kTerminal);
  ReliableParams params;
  params.max_attempts = 5;
  EXPECT_THROW(reliable_broadcast(medium, packet::NodeId{0},
                                  data_packet(0, 10), TrafficClass::kControl,
                                  params),
               std::runtime_error);
}

TEST(Reliable, UnicastStopsAtDestination) {
  channel::IidErasure ch(0.3);
  SimMedium medium(ch, channel::Rng(13));
  for (std::uint16_t i = 0; i < 4; ++i)
    medium.attach(packet::NodeId{i}, Role::kTerminal);
  const auto result =
      reliable_unicast(medium, packet::NodeId{0}, packet::NodeId{2},
                       data_packet(0, 10), TrafficClass::kCipher);
  EXPECT_TRUE(result.delivered.contains(packet::NodeId{2}));
  EXPECT_THROW(reliable_unicast(medium, packet::NodeId{0}, packet::NodeId{9},
                                data_packet(0, 10), TrafficClass::kCipher),
               std::invalid_argument);
}

TEST(Reliable, NoReceiversTerminatesImmediately) {
  channel::IidErasure ch(1.0);
  SimMedium medium(ch, channel::Rng(14));
  medium.attach(packet::NodeId{0}, Role::kTerminal);
  const auto result = reliable_broadcast(medium, packet::NodeId{0},
                                         data_packet(0, 10),
                                         TrafficClass::kControl);
  EXPECT_EQ(result.attempts, 0u);
}

}  // namespace
}  // namespace thinair::net
