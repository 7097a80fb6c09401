// Reception table: reports, set operations and the class partition.
#include "core/reception.h"

#include <gtest/gtest.h>

namespace thinair::core {
namespace {

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

ReceptionTable small_table() {
  // Alice = 0; receivers 1, 2, 3; universe of 6 x-packets.
  ReceptionTable t(T(0), {T(1), T(2), T(3)}, 6);
  t.set_received(T(1), {0, 1, 2, 3});
  t.set_received(T(2), {2, 3, 4});
  t.set_received(T(3), {3, 4, 5});
  return t;
}

TEST(ReceptionTable, BasicAccessors) {
  const ReceptionTable t = small_table();
  EXPECT_EQ(t.universe(), 6u);
  EXPECT_EQ(t.alice(), T(0));
  EXPECT_EQ(t.received_count(T(1)), 4u);
  EXPECT_TRUE(t.has(T(2), 4));
  EXPECT_FALSE(t.has(T(2), 0));
  EXPECT_EQ(t.received(T(3)), (std::vector<std::uint32_t>{3, 4, 5}));
}

TEST(ReceptionTable, AliceAmongReceiversThrows) {
  EXPECT_THROW(ReceptionTable(T(0), {T(0), T(1)}, 4), std::invalid_argument);
}

TEST(ReceptionTable, UnknownReceiverThrows) {
  const ReceptionTable t = small_table();
  EXPECT_THROW((void)t.received(T(9)), std::out_of_range);
}

TEST(ReceptionTable, IndexOutOfUniverseThrows) {
  ReceptionTable t(T(0), {T(1)}, 4);
  EXPECT_THROW(t.set_received(T(1), {4}), std::out_of_range);
}

TEST(ReceptionTable, SetReceivedOverwrites) {
  ReceptionTable t(T(0), {T(1)}, 4);
  t.set_received(T(1), {0, 1});
  t.set_received(T(1), {3});
  EXPECT_EQ(t.received(T(1)), (std::vector<std::uint32_t>{3}));
}

TEST(ReceptionTable, ClassesPartitionReceivedPackets) {
  const ReceptionTable t = small_table();
  const auto classes = t.classes();
  // Patterns: x0,x1 -> {1}; x2 -> {1,2}; x3 -> {1,2,3}; x4 -> {2,3};
  // x5 -> {3}. Five classes, and every received packet appears once.
  EXPECT_EQ(classes.size(), 5u);
  std::size_t total = 0;
  for (const auto& c : classes) total += c.indices.size();
  EXPECT_EQ(total, 6u);
}

TEST(ReceptionTable, ClassesSortedMostSharedFirst) {
  const ReceptionTable t = small_table();
  const auto classes = t.classes();
  for (std::size_t i = 1; i < classes.size(); ++i)
    EXPECT_GE(classes[i - 1].members.size(), classes[i].members.size());
  EXPECT_EQ(classes.front().members.size(), 3u);
  EXPECT_EQ(classes.front().indices, (std::vector<std::uint32_t>{3}));
}

TEST(ReceptionTable, ClassesExcludeUnreceivedPackets) {
  ReceptionTable t(T(0), {T(1), T(2)}, 5);
  t.set_received(T(1), {0});
  t.set_received(T(2), {0});
  const auto classes = t.classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].indices, (std::vector<std::uint32_t>{0}));
}

TEST(ReceptionTable, EmptyReportsYieldNoClasses) {
  ReceptionTable t(T(0), {T(1), T(2)}, 8);
  t.set_received(T(1), {});
  t.set_received(T(2), {});
  EXPECT_TRUE(t.classes().empty());
}

TEST(ReceptionTable, LargeUniverseBitmapWords) {
  ReceptionTable t(T(0), {T(1)}, 200);
  std::vector<std::uint32_t> all;
  for (std::uint32_t i = 0; i < 200; i += 3) all.push_back(i);
  t.set_received(T(1), all);
  EXPECT_EQ(t.received_count(T(1)), all.size());
  EXPECT_TRUE(t.has(T(1), 198));
  EXPECT_FALSE(t.has(T(1), 199));
}

}  // namespace
}  // namespace thinair::core
