// Wire-format round trips for the control messages the efficiency metric
// charges.
#include "packet/serialize.h"

#include <gtest/gtest.h>

namespace thinair::packet {
namespace {

TEST(Serialize, ReportRoundTrip) {
  const ReceptionReport r{10, {0, 3, 5, 9}};
  const Payload bytes = encode(r);
  const auto back = decode_report(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(Serialize, ReportEmptyAndFull) {
  const ReceptionReport empty{8, {}};
  EXPECT_EQ(decode_report(encode(empty)), empty);

  ReceptionReport full{8, {}};
  for (std::uint32_t i = 0; i < 8; ++i) full.received.push_back(i);
  EXPECT_EQ(decode_report(encode(full)), full);
}

TEST(Serialize, ReportSizeIsBitmap) {
  const ReceptionReport r{90, {1, 2, 3}};
  // 4 bytes universe + ceil(90/8) = 12 bytes bitmap.
  EXPECT_EQ(encode(r).size(), 4u + 12u);
}

TEST(Serialize, ReportRejectsTruncated) {
  const Payload bytes = encode(ReceptionReport{16, {1}});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Payload trunc(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_report(trunc).has_value()) << "cut=" << cut;
  }
}

TEST(Serialize, ReportRejectsUniverseThatWrapsTheBitmapSize) {
  // ceil(N / 8) wraps to 0 in 32-bit arithmetic for N >= 0xFFFFFFF9: a
  // 4-byte report claiming such a universe has no bitmap to read.
  EXPECT_FALSE(decode_report(Payload{0xFF, 0xFF, 0xFF, 0xFF}).has_value());
  EXPECT_FALSE(decode_report(Payload{0xF9, 0xFF, 0xFF, 0xFF}).has_value());
  EXPECT_FALSE(
      decode_report(Payload{0xFF, 0xFF, 0xFF, 0xFF, 0x01}).has_value());
}

TEST(Serialize, ReportRejectsTrailingGarbage) {
  Payload bytes = encode(ReceptionReport{16, {1}});
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode_report(bytes).has_value());
}

TEST(Serialize, AnnouncementRoundTrip) {
  Announcement a;
  Combination c1;
  c1.add(4, gf::GF256(0x53));
  c1.add(900, gf::GF256(0x01));
  Combination c2;
  c2.add(0, gf::GF256(0xFF));
  a.combinations = {c1, c2};

  const Payload bytes = encode(a);
  const auto back = decode_announcement(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, a);
}

TEST(Serialize, AnnouncementEmpty) {
  const Announcement a;
  const auto back = decode_announcement(encode(a));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->combinations.empty());
}

TEST(Serialize, AnnouncementSizeMatchesCombinationEstimate) {
  Announcement a;
  Combination c;
  c.add(1, gf::kOne);
  c.add(2, gf::kOne);
  c.add(3, gf::kOne);
  a.combinations = {c};
  EXPECT_EQ(encode(a).size(), 2u + c.serialized_size());
}

TEST(Serialize, AnnouncementRejectsTruncated) {
  Announcement a;
  Combination c;
  c.add(7, gf::GF256(2));
  a.combinations = {c, c};
  const Payload bytes = encode(a);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Payload trunc(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_announcement(trunc).has_value()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace thinair::packet
