// Artificial interference: the 9 noise patterns and the paper's 5-of-9
// jamming guarantee.
#include "channel/interference.h"

#include <gtest/gtest.h>

#include <vector>

#include "channel/testbed_channel.h"

namespace thinair::channel {
namespace {

TEST(Interference, NinePatternsCycle) {
  const InterferenceSchedule sched{CellGrid{}};
  for (std::size_t s = 0; s < 18; ++s) {
    const NoisePattern p = sched.pattern(s);
    EXPECT_EQ(p.row, (s % 9) / 3);
    EXPECT_EQ(p.col, (s % 9) % 3);
  }
}

TEST(Interference, JammedIffRowOrColumnMatches) {
  const NoisePattern p{1, 2};
  EXPECT_TRUE(InterferenceSchedule::is_jammed(CellIndex{3}, p));   // row 1
  EXPECT_TRUE(InterferenceSchedule::is_jammed(CellIndex{2}, p));   // col 2
  EXPECT_TRUE(InterferenceSchedule::is_jammed(CellIndex{5}, p));   // both
  EXPECT_FALSE(InterferenceSchedule::is_jammed(CellIndex{0}, p));
  EXPECT_FALSE(InterferenceSchedule::is_jammed(CellIndex{7}, p));
}

TEST(Interference, EveryCellJammedInExactlyFivePatterns) {
  // The design guarantee of Sec. 4: wherever Eve stands, 5 of the 9
  // rotating patterns jam her cell (3 row + 3 column - 1 overlap).
  for (std::size_t c = 0; c < CellGrid::kCells; ++c)
    EXPECT_EQ(InterferenceSchedule::patterns_jamming(CellIndex{c}), 5u)
        << "cell " << c;
}

TEST(Interference, AntennasSitOnPerimeter) {
  const CellGrid grid;
  const InterferenceSchedule sched{grid};
  for (std::size_t r = 0; r < 3; ++r) {
    const auto ants = sched.row_antennas(r);
    EXPECT_DOUBLE_EQ(ants[0].x, 0.0);
    EXPECT_DOUBLE_EQ(ants[1].x, grid.side());
  }
  for (std::size_t c = 0; c < 3; ++c) {
    const auto ants = sched.col_antennas(c);
    EXPECT_DOUBLE_EQ(ants[0].y, 0.0);
    EXPECT_DOUBLE_EQ(ants[1].y, grid.side());
  }
}

TEST(Interference, InBeamPowerExceedsSidelobe) {
  const CellGrid grid;
  const InterferenceSchedule sched{grid};
  const LogDistancePathLoss pl;
  // Slot 0 jams row 0 and column 0. A receiver in cell 0 (in both beams)
  // must see far more interference than one in cell 8 (in neither).
  const double in_beam = sched.interference_mw(grid.center(CellIndex{0}), 0, pl);
  const double out_beam = sched.interference_mw(grid.center(CellIndex{8}), 0, pl);
  EXPECT_GT(in_beam, out_beam * 10.0);
}

TEST(TestbedChannel, JammedCellsLoseMorePackets) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{4});  // tx in centre
  ch.place_in_cell(packet::NodeId{1}, CellIndex{0});
  // Slot 0 jams row 0 + col 0: cell 0 jammed. Slot 8 jams row 2 + col 2:
  // cell 0 clear.
  const double per_jam =
      ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 0});
  const double per_clear =
      ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, 8});
  EXPECT_GT(per_jam, 0.7);
  EXPECT_LT(per_clear, 0.3);
}

TEST(TestbedChannel, InterferenceDisabledMeansCleanChannel) {
  TestbedChannel::Config cfg;
  cfg.interference_enabled = false;
  TestbedChannel ch(cfg);
  ch.place_in_cell(packet::NodeId{0}, CellIndex{4});
  ch.place_in_cell(packet::NodeId{1}, CellIndex{0});
  for (std::size_t s = 0; s < 9; ++s)
    EXPECT_LE(ch.erasure_probability({packet::NodeId{0}, packet::NodeId{1}, s}),
              cfg.sinr.floor + 1e-9);
}

TEST(TestbedChannel, UnplacedNodeThrows) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{4});
  EXPECT_THROW(
      (void)ch.erasure_probability({packet::NodeId{0}, packet::NodeId{9}, 0}),
      std::out_of_range);
}

TEST(TestbedChannel, SinrSymmetricInDistance) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{0});
  ch.place_in_cell(packet::NodeId{1}, CellIndex{8});
  // Same distance both ways; with no jamming difference for the diagonal
  // pair in slot 4 (jams row 1 / col 1 — neither corner), SINR matches.
  EXPECT_NEAR(ch.link_sinr_db(packet::NodeId{0}, packet::NodeId{1}, 4),
              ch.link_sinr_db(packet::NodeId{1}, packet::NodeId{0}, 4), 1e-9);
}

// The table built in place() against the model evaluated from scratch:
// every double must match bit for bit, not just approximately.
void expect_matches_formula(const TestbedChannel& ch,
                            const std::vector<packet::NodeId>& ids) {
  const TestbedChannel::Config& cfg = ch.config();
  const LogDistancePathLoss pl(cfg.pathloss);
  for (const packet::NodeId tx : ids) {
    for (const packet::NodeId rx : ids) {
      if (tx == rx) continue;
      const Vec2 rx_pos = ch.position_of(rx);
      const double signal_mw =
          pl.rx_power_mw(distance(ch.position_of(tx), rx_pos));
      for (std::size_t slot = 0; slot < 3 * InterferenceSchedule::kPatterns;
           ++slot) {
        SCOPED_TRACE(::testing::Message() << "tx " << tx.value << " rx "
                                          << rx.value << " slot " << slot);
        const double interference_mw =
            cfg.interference_enabled
                ? ch.schedule().interference_mw(rx_pos, slot, pl)
                : 0.0;
        const double sinr = sinr_db(signal_mw, interference_mw, cfg.sinr);
        EXPECT_EQ(ch.link_sinr_db(tx, rx, slot), sinr);
        EXPECT_EQ(ch.erasure_probability({tx, rx, slot}),
                  packet_error_rate(sinr, cfg.sinr));
      }
    }
  }
}

TEST(TestbedChannel, TableMatchesFormulaBitForBit) {
  for (const bool interference : {true, false}) {
    SCOPED_TRACE(interference ? "interference on" : "interference off");
    TestbedChannel::Config cfg;
    cfg.interference_enabled = interference;
    TestbedChannel ch(cfg);
    std::vector<packet::NodeId> ids;
    for (std::uint16_t c = 0; c < CellGrid::kCells; ++c) {
      ids.push_back(packet::NodeId{c});
      ch.place_in_cell(ids.back(), CellIndex{c});
    }
    expect_matches_formula(ch, ids);  // every ordered pair of cells

    // Moving nodes after draws were taken refreshes every link they touch,
    // in both directions, including off-centre positions.
    ch.place(packet::NodeId{3}, Vec2{1.0, 4.2});
    ch.place_in_cell(packet::NodeId{0}, CellIndex{8});
    expect_matches_formula(ch, ids);
  }
}

TEST(TestbedChannel, SparseIdsAndOutOfOrderPlacement) {
  TestbedChannel ch;
  // Out of id order: widening the table to a higher id keeps the links
  // already computed, and a lower id fits in the existing rows.
  const std::vector<packet::NodeId> ids = {
      packet::NodeId{17}, packet::NodeId{2}, packet::NodeId{40},
      packet::NodeId{63}};
  ch.place(ids[0], Vec2{0.3, 0.4});
  ch.place(ids[1], Vec2{3.5, 1.1});
  expect_matches_formula(ch, {ids[0], ids[1]});
  ch.place_in_cell(ids[2], CellIndex{4});
  ch.place_in_cell(ids[3], CellIndex{7});
  expect_matches_formula(ch, ids);

  // Ids between the placed ones, and past the table, are still unplaced.
  for (const std::uint16_t unplaced : {0, 5, 62, 64, 1000}) {
    const packet::NodeId u{unplaced};
    EXPECT_THROW((void)ch.erasure_probability({u, ids[1], 0}),
                 std::out_of_range);
    EXPECT_THROW((void)ch.erasure_probability({ids[1], u, 0}),
                 std::out_of_range);
    EXPECT_THROW((void)ch.link_sinr_db(ids[2], u, 4), std::out_of_range);
    EXPECT_THROW((void)ch.position_of(u), std::out_of_range);
  }
}

TEST(TestbedChannel, RejectsIdsOutsideTheNodeSetRange) {
  TestbedChannel ch;
  ch.place_in_cell(packet::NodeId{0}, CellIndex{0});
  EXPECT_THROW(ch.place(packet::NodeId{64}, Vec2{1.0, 1.0}), std::out_of_range);
  EXPECT_THROW(ch.place_in_cell(packet::NodeId{65535}, CellIndex{4}),
               std::out_of_range);
  // A rejected id leaves the channel as it was.
  ch.place_in_cell(packet::NodeId{1}, CellIndex{8});
  expect_matches_formula(ch, {packet::NodeId{0}, packet::NodeId{1}});
}

}  // namespace
}  // namespace thinair::channel
