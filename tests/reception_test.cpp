// Reception table: reports, set operations and the class partition.
#include "core/reception.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "channel/rng.h"

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

// Reference copies of the bit-by-bit received() and the map-based
// classes() the single-pass versions replaced, built only on has().
std::vector<std::uint32_t> reference_received(const ReceptionTable& t,
                                              packet::NodeId r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < t.universe(); ++i)
    if (t.has(r, i)) out.push_back(i);
  return out;
}

std::vector<ReceptionTable::Class> reference_classes(
    const ReceptionTable& t) {
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_mask;
  for (std::uint32_t i = 0; i < t.universe(); ++i) {
    net::NodeSet members;
    for (packet::NodeId r : t.receivers())
      if (t.has(r, i)) members.insert(r);
    if (!members.empty()) by_mask[members.mask()].push_back(i);
  }
  std::vector<ReceptionTable::Class> out;
  for (auto& [mask, indices] : by_mask)
    out.push_back({net::NodeSet(mask), std::move(indices)});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.members.size() != b.members.size())
      return a.members.size() > b.members.size();
    return a.members.mask() < b.members.mask();
  });
  return out;
}

TEST(ReceptionTable, ClassesAndReceivedMatchReference) {
  channel::Rng rng(17);
  for (const std::size_t universe : {1u, 63u, 64u, 65u, 200u}) {
    for (int trial = 0; trial < 25; ++trial) {
      // A sparse roster of 1-8 distinct receiver ids in [1, 63].
      std::vector<packet::NodeId> receivers;
      const std::size_t count = 1 + rng.next_below(8);
      while (receivers.size() < count) {
        const packet::NodeId id =
            T(static_cast<std::uint16_t>(1 + rng.next_below(63)));
        if (std::find(receivers.begin(), receivers.end(), id) ==
            receivers.end())
          receivers.push_back(id);
      }
      ReceptionTable t(T(0), receivers, universe);
      for (packet::NodeId r : receivers) {
        // Some reports are empty; the rest keep each index with a
        // per-receiver probability, so class sizes vary.
        std::vector<std::uint32_t> got;
        const std::uint64_t keep = rng.next_below(5);  // in quarters
        for (std::uint32_t i = 0; i < universe; ++i)
          if (rng.next_below(4) < keep) got.push_back(i);
        t.set_received(r, got);
      }

      for (packet::NodeId r : receivers)
        EXPECT_EQ(t.received(r), reference_received(t, r));
      const auto got = t.classes();
      const auto want = reference_classes(t);
      ASSERT_EQ(got.size(), want.size()) << "universe " << universe;
      for (std::size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(got[c].members, want[c].members) << "class " << c;
        EXPECT_EQ(got[c].indices, want[c].indices) << "class " << c;
      }
    }
  }
}

}  // namespace
}  // namespace thinair::core
