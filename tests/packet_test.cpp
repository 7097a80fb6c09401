// Packet substrate: kinds, wire sizes, combinations.
#include "packet/combination.h"
#include "packet/packet.h"

#include <gtest/gtest.h>

namespace thinair::packet {
namespace {

TEST(Packet, WireSizeAddsHeader) {
  Packet p{.kind = Kind::kData,
           .source = NodeId{1},
           .round = RoundId{0},
           .seq = PacketSeq{0},
           .payload = Payload(100, 0)};
  EXPECT_EQ(p.wire_size(), 100 + Packet::header_size());
}

TEST(Packet, KindNames) {
  EXPECT_EQ(to_string(Kind::kData), "data");
  EXPECT_EQ(to_string(Kind::kCoded), "coded");
  EXPECT_EQ(to_string(Kind::kReport), "report");
  EXPECT_EQ(to_string(Kind::kAnnouncement), "announcement");
  EXPECT_EQ(to_string(Kind::kAck), "ack");
  EXPECT_EQ(to_string(Kind::kCipher), "cipher");
}

TEST(Packet, NodeIdOrdering) {
  EXPECT_LT(NodeId{1}, NodeId{2});
  EXPECT_EQ(NodeId{3}, NodeId{3});
}

TEST(Combination, AddSkipsZeroCoefficients) {
  Combination c;
  c.add(0, gf::kZero);
  EXPECT_TRUE(c.empty());
  c.add(1, gf::kOne);
  EXPECT_EQ(c.terms().size(), 1u);
}

// Combination::apply over payload views, as the protocol evaluates it.
Payload apply(const Combination& c, const std::vector<Payload>& inputs,
              std::size_t payload_size) {
  PayloadArena arena;
  const std::vector<ConstByteSpan> views(inputs.begin(), inputs.end());
  const ConstByteSpan out = c.apply(views, payload_size, arena);
  return Payload(out.begin(), out.end());
}

TEST(Combination, ApplyXorsPayloads) {
  const std::vector<Payload> inputs{{1, 2}, {3, 4}, {5, 6}};
  Combination c;
  c.add(0, gf::kOne);
  c.add(2, gf::kOne);
  EXPECT_EQ(apply(c, inputs, 2), (Payload{1 ^ 5, 2 ^ 6}));
}

TEST(Combination, ApplyUsesCoefficients) {
  const std::vector<Payload> inputs{{2}, {3}};
  Combination c;
  c.add(0, gf::GF256(3));
  c.add(1, gf::GF256(2));
  const Payload out = apply(c, inputs, 1);
  const gf::GF256 want = gf::GF256(3) * gf::GF256(2) + gf::GF256(2) * gf::GF256(3);
  EXPECT_EQ(out[0], want.value());
}

TEST(Combination, ApplyValidatesInputs) {
  const std::vector<Payload> inputs{{1, 2}};
  Combination c;
  c.add(3, gf::kOne);
  EXPECT_THROW((void)apply(c, inputs, 2), std::out_of_range);

  Combination c2;
  c2.add(0, gf::kOne);
  EXPECT_THROW((void)apply(c2, inputs, 3), std::invalid_argument);
}

TEST(Combination, SerializedSizeFormula) {
  Combination c;
  c.add(0, gf::kOne);
  c.add(1, gf::kOne);
  EXPECT_EQ(c.serialized_size(), 2u + 2u * 5u);
}

}  // namespace
}  // namespace thinair::packet
