// Sec. 3.3 estimators: oracle, counts, fractions, slots and geometry.
#include "core/estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "channel/interference.h"
#include "channel/rng.h"
#include "util/ksubset.h"

namespace thinair::core {
namespace {

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

ReceptionTable table3() {
  ReceptionTable t(T(0), {T(1), T(2), T(3)}, 10);
  t.set_received(T(1), {0, 1, 2, 3, 4, 5});
  t.set_received(T(2), {0, 2, 4, 6, 8});
  t.set_received(T(3), {1, 3, 5, 7, 9});
  return t;
}

net::NodeSet exempt(std::initializer_list<std::uint16_t> ids) {
  net::NodeSet s;
  for (auto v : ids) s.insert(T(v));
  return s;
}

TEST(OracleEstimator, CountsExactMisses) {
  const OracleEstimator est({0, 1, 2}, 10);  // Eve got x0..x2
  EXPECT_EQ(est.missed_within({0, 1, 2}, {}), 0u);
  EXPECT_EQ(est.missed_within({3, 4, 5}, {}), 3u);
  EXPECT_EQ(est.missed_within({2, 3}, {}), 1u);
}

TEST(OracleEstimator, RejectsOutOfUniverse) {
  EXPECT_THROW(OracleEstimator({12}, 10), std::out_of_range);
}

TEST(FractionEstimator, FlooredFraction) {
  const FractionEstimator est(0.3);
  EXPECT_EQ(est.missed_within({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}), 3u);
  EXPECT_EQ(est.missed_within({0, 1, 2}, {}), 0u);  // floor(0.9)
  EXPECT_THROW(FractionEstimator(1.5), std::invalid_argument);
}

TEST(KSubsetEstimator, LeaveOneOutTakesWorstSingleHypothesis) {
  const ReceptionTable t = table3();
  const KSubsetEstimator est(t, 1);
  // Set = R1 = {0..5}. Hypotheses (exempting Alice and T1): T2 missed
  // {1,3,5} of it -> 3; T3 missed {0,2,4} -> 3. Bound = 3.
  EXPECT_EQ(est.missed_within(t.received(T(1)), exempt({0, 1})), 3u);
}

TEST(KSubsetEstimator, TwoAntennaUnionIsStricter) {
  const ReceptionTable t = table3();
  const KSubsetEstimator est1(t, 1);
  const KSubsetEstimator est2(t, 2);
  // With T2 and T3 pooled, their union covers all of R1: bound 0.
  EXPECT_EQ(est2.missed_within(t.received(T(1)), exempt({0, 1})), 0u);
  EXPECT_LE(est2.missed_within(t.received(T(1)), exempt({0, 1})),
            est1.missed_within(t.received(T(1)), exempt({0, 1})));
}

TEST(KSubsetEstimator, NoCandidatesMeansZero) {
  const ReceptionTable t = table3();
  const KSubsetEstimator est(t, 1);
  EXPECT_EQ(est.missed_within({6, 7}, exempt({0, 1, 2, 3})), 0u);
}

TEST(KSubsetEstimator, KZeroThrows) {
  const ReceptionTable t = table3();
  EXPECT_THROW(KSubsetEstimator(t, 0), std::invalid_argument);
}

// Subsets are receiver bitmasks of one word: a 65th receiver is refused.
TEST(KSubsetEstimator, MoreThan64ReceiversThrows) {
  std::vector<packet::NodeId> ids;
  for (std::uint16_t v = 1; v <= 64; ++v) ids.push_back(T(v));
  EXPECT_NO_THROW(KSubsetEstimator(ReceptionTable(T(0), ids, 4), 1));
  ids.push_back(T(65));
  EXPECT_THROW(KSubsetEstimator(ReceptionTable(T(0), ids, 4), 1),
               std::invalid_argument);
}

TEST(LooFractionEstimator, UsesWorstMissRate) {
  const ReceptionTable t = table3();
  const LooFractionEstimator est(t, 1.0);
  // Miss rates: T1 misses 4/10, T2 and T3 miss 5/10; min = 0.4.
  EXPECT_DOUBLE_EQ(est.delta(), 0.4);
  EXPECT_EQ(est.missed_within({0, 1, 2, 3, 4}, {}), 2u);  // floor(2.0)
}

TEST(LooFractionEstimator, SafetyDerates) {
  const ReceptionTable t = table3();
  const LooFractionEstimator est(t, 0.5);
  EXPECT_DOUBLE_EQ(est.delta(), 0.2);
  EXPECT_THROW(LooFractionEstimator(t, 0.0), std::invalid_argument);
}

TEST(SlotFractionEstimator, PerSlotBounds) {
  // Universe 10: slots 0 = {0..4}, 1 = {5..9}.
  ReceptionTable t(T(0), {T(1), T(2)}, 10);
  t.set_received(T(1), {0, 1, 2, 3, 4});        // missed nothing in slot 0
  t.set_received(T(2), {0, 1, 2, 3, 4, 5, 6});  // missed 3/5 in slot 1
  const std::vector<std::size_t> slot_of{0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  const SlotFractionEstimator est(t, slot_of, 1.0);
  // Slot 0: min miss = 0 (T1 got all). Slot 1: T1 missed 5/5, T2 3/5 ->
  // min 0.6.
  EXPECT_EQ(est.missed_within({0, 1, 2, 3, 4}, {}), 0u);
  EXPECT_EQ(est.missed_within({5, 6, 7, 8, 9}, {}), 3u);
  EXPECT_EQ(est.missed_within({0, 5}, {}), 0u);  // floor(0.6)
}

TEST(SlotFractionEstimator, EmptySlotMapDegeneratesToGlobal) {
  const ReceptionTable t = table3();
  const SlotFractionEstimator est(t, {}, 1.0);
  // One global slot: min miss rate = 0.4 (T1).
  EXPECT_EQ(est.missed_within({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}), 4u);
}

TEST(GeometryEstimator, SingleFreeCellGivesExactPattern) {
  // n=8-style: occupied cells 0..7, free cell 8 (row 2, col 2). Eve's
  // hypothesis is unique. Universe 9, one packet per slot (slot i = i).
  ReceptionTable t(T(0), {T(1)}, 9);
  // Receiver in cell 1 (row 0, col 1): jammed in slots with row 0 (0,1,2)
  // or col 1 (1,4,7) -> jammed {0,1,2,4,7}. Say it missed exactly those.
  t.set_received(T(1), {3, 5, 6, 8});
  std::vector<std::size_t> slot_of{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const GeometryEstimator est(t, slot_of, {0, 1, 2, 3, 4, 5, 6, 7}, {1},
                              1.0);
  EXPECT_EQ(est.candidate_cells(), (std::vector<std::size_t>{8}));
  EXPECT_DOUBLE_EQ(est.jam_rate(), 1.0);
  EXPECT_DOUBLE_EQ(est.clear_rate(), 0.0);
  // Cell 8 (row 2, col 2) is jammed in slots {2,5,6,7,8}: those packets
  // count with jam_rate 1, others with clear_rate 0.
  EXPECT_EQ(est.missed_within({2, 5, 6, 7, 8}, {}), 5u);
  EXPECT_EQ(est.missed_within({0, 1, 3, 4}, {}), 0u);
}

TEST(GeometryEstimator, MoreFreeCellsMoreConservative) {
  ReceptionTable t(T(0), {T(1)}, 9);
  t.set_received(T(1), {3, 5, 6, 8});
  std::vector<std::size_t> slot_of{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const GeometryEstimator tight(t, slot_of, {0, 1, 2, 3, 4, 5, 6, 7}, {1},
                                1.0);
  const GeometryEstimator loose(t, slot_of, {0, 1}, {1}, 1.0);
  const std::vector<std::uint32_t> all{0, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_LE(loose.missed_within(all, {}), tight.missed_within(all, {}));
}

TEST(GeometryEstimator, NoFreeCellThrows) {
  ReceptionTable t(T(0), {T(1)}, 4);
  t.set_received(T(1), {0});
  EXPECT_THROW(GeometryEstimator(t, {0, 0, 0, 0},
                                 {0, 1, 2, 3, 4, 5, 6, 7, 8}, {1}, 1.0),
               std::invalid_argument);
}

// Reference copy of the per-bit, per-subset GeometryEstimator the
// table-driven one replaced: rates from one has() per (receiver, index),
// and for every k-subset of free cells a sum over the indices of the
// per-packet miss product.
struct ReferenceGeometry {
  std::vector<std::size_t> candidates;
  double jam_rate = 1.0;
  double clear_rate = 0.0;

  ReferenceGeometry(const ReceptionTable& table,
                    const std::vector<std::size_t>& slot_of,
                    const std::vector<std::size_t>& occupied_cells,
                    const std::vector<std::size_t>& receiver_cells) {
    std::array<bool, channel::CellGrid::kCells> occupied{};
    for (std::size_t c : occupied_cells) occupied[c] = true;
    for (std::size_t c = 0; c < channel::CellGrid::kCells; ++c)
      if (!occupied[c]) candidates.push_back(c);
    const channel::InterferenceSchedule schedule{channel::CellGrid{}};
    std::size_t jam_missed = 0, jam_total = 0;
    std::size_t clear_missed = 0, clear_total = 0;
    for (std::size_t ri = 0; ri < table.receivers().size(); ++ri) {
      const channel::CellIndex cell{receiver_cells[ri]};
      for (std::uint32_t i = 0; i < table.universe(); ++i) {
        const bool jammed = channel::InterferenceSchedule::is_jammed(
            cell, schedule.pattern(slot_of[i]));
        const bool missed = !table.has(table.receivers()[ri], i);
        if (jammed) {
          ++jam_total;
          jam_missed += missed ? 1u : 0u;
        } else {
          ++clear_total;
          clear_missed += missed ? 1u : 0u;
        }
      }
    }
    jam_rate = jam_total == 0 ? 1.0
                              : static_cast<double>(jam_missed) /
                                    static_cast<double>(jam_total);
    clear_rate = clear_total == 0 ? 0.0
                                  : static_cast<double>(clear_missed) /
                                        static_cast<double>(clear_total);
  }

  std::size_t missed_within(const std::vector<std::uint32_t>& indices,
                            const std::vector<std::size_t>& slot_of,
                            double safety, std::size_t antennas) const {
    const channel::InterferenceSchedule schedule{channel::CellGrid{}};
    const std::size_t k = std::min(antennas, candidates.size());
    double worst = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> pick(k);
    for (std::size_t i = 0; i < k; ++i) pick[i] = i;
    do {
      double expected = 0.0;
      for (std::uint32_t i : indices) {
        double miss = 1.0;
        for (std::size_t p : pick) {
          const bool jammed = channel::InterferenceSchedule::is_jammed(
              channel::CellIndex{candidates[p]},
              schedule.pattern(slot_of[i]));
          miss *= jammed ? jam_rate : clear_rate;
        }
        expected += miss;
      }
      worst = std::min(worst, expected);
    } while (util::next_k_subset(pick, candidates.size()));
    return static_cast<std::size_t>(std::floor(safety * worst + 1e-9));
  }
};

TEST(GeometryEstimator, MatchesReferenceOnRandomInputs) {
  channel::Rng rng(41);
  std::size_t nonzero = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t universe = 1 + rng.next_below(200);
    const std::size_t receivers = 1 + rng.next_below(6);
    std::vector<packet::NodeId> ids;
    for (std::size_t r = 0; r < receivers; ++r)
      ids.push_back(T(static_cast<std::uint16_t>(1 + r)));
    ReceptionTable t(T(0), ids, universe);
    for (packet::NodeId r : ids) {
      std::vector<std::uint32_t> got;
      const std::uint64_t keep = rng.next_below(5);  // in quarters
      for (std::uint32_t i = 0; i < universe; ++i)
        if (rng.next_below(4) < keep) got.push_back(i);
      t.set_received(r, got);
    }
    std::vector<std::size_t> slot_of(universe);
    for (auto& s : slot_of) s = rng.next_below(40);
    // Terminals occupy 1-8 distinct cells; receivers sit in some of them.
    std::vector<std::size_t> cells(channel::CellGrid::kCells);
    std::iota(cells.begin(), cells.end(), std::size_t{0});
    for (std::size_t i = cells.size() - 1; i > 0; --i)
      std::swap(cells[i], cells[rng.next_below(i + 1)]);
    const std::vector<std::size_t> occupied(
        cells.begin(),
        cells.begin() + static_cast<std::ptrdiff_t>(1 + rng.next_below(8)));
    std::vector<std::size_t> receiver_cells(receivers);
    for (auto& c : receiver_cells)
      c = occupied[rng.next_below(occupied.size())];
    const double safety = 0.5 + 0.5 * rng.next_double();
    const std::size_t antennas = 1 + rng.next_below(3);

    const GeometryEstimator est(t, slot_of, occupied, receiver_cells, safety,
                                antennas);
    const ReferenceGeometry ref(t, slot_of, occupied, receiver_cells);
    ASSERT_EQ(est.candidate_cells(), ref.candidates);
    EXPECT_EQ(est.jam_rate(), ref.jam_rate);
    EXPECT_EQ(est.clear_rate(), ref.clear_rate);
    for (int q = 0; q < 5; ++q) {
      std::vector<std::uint32_t> indices;
      const std::uint64_t keep = rng.next_below(5);
      for (std::uint32_t i = 0; i < universe; ++i)
        if (rng.next_below(4) < keep) indices.push_back(i);
      const std::size_t want =
          ref.missed_within(indices, slot_of, safety, antennas);
      EXPECT_EQ(est.missed_within(indices, {}), want)
          << "trial " << trial << " antennas " << antennas;
      nonzero += want != 0 ? 1u : 0u;
    }
  }
  EXPECT_GT(nonzero, 100u);  // the comparison is not all zeros
}

// A random reception table: 1-6 receivers (ids 1..), each keeping every
// x-packet with a probability drawn in quarters, so empty and full
// receptions both occur.
ReceptionTable random_table(channel::Rng& rng) {
  const std::size_t universe = 1 + rng.next_below(200);
  const std::size_t receivers = 1 + rng.next_below(6);
  std::vector<packet::NodeId> ids;
  for (std::size_t r = 0; r < receivers; ++r)
    ids.push_back(T(static_cast<std::uint16_t>(1 + r)));
  ReceptionTable t(T(0), ids, universe);
  for (packet::NodeId r : ids) {
    std::vector<std::uint32_t> got;
    const std::uint64_t keep = rng.next_below(5);
    for (std::uint32_t i = 0; i < universe; ++i)
      if (rng.next_below(4) < keep) got.push_back(i);
    t.set_received(r, got);
  }
  return t;
}

std::vector<std::uint32_t> random_indices(channel::Rng& rng,
                                          std::size_t universe) {
  std::vector<std::uint32_t> indices;
  const std::uint64_t keep = rng.next_below(5);
  for (std::uint32_t i = 0; i < universe; ++i)
    if (rng.next_below(4) < keep) indices.push_back(i);
  return indices;
}

// The k-subset bound from its definition, one has() per (index, member).
std::size_t reference_ksubset(const ReceptionTable& t, std::size_t k_antennas,
                              const std::vector<std::uint32_t>& indices,
                              const net::NodeSet& exempt) {
  std::vector<packet::NodeId> candidates;
  for (packet::NodeId r : t.receivers())
    if (!exempt.contains(r)) candidates.push_back(r);
  if (candidates.empty()) return 0;
  std::vector<std::size_t> pick(std::min(k_antennas, candidates.size()));
  std::iota(pick.begin(), pick.end(), std::size_t{0});
  std::size_t best = indices.size();
  do {
    std::size_t missed = 0;
    for (std::uint32_t idx : indices)
      if (std::none_of(pick.begin(), pick.end(), [&](std::size_t p) {
            return t.has(candidates[p], idx);
          }))
        ++missed;
    best = std::min(best, missed);
  } while (util::next_k_subset(pick, candidates.size()));
  return best;
}

TEST(KSubsetEstimator, MatchesReferenceOnRandomInputs) {
  channel::Rng rng(43);
  std::size_t nonzero = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const ReceptionTable t = random_table(rng);
    const std::size_t k = 1 + rng.next_below(4);
    const KSubsetEstimator est(t, k);
    for (int q = 0; q < 5; ++q) {
      std::vector<std::uint32_t> indices = random_indices(rng, t.universe());
      if (q == 0) indices.push_back(static_cast<std::uint32_t>(t.universe()));
      net::NodeSet exempt;
      for (packet::NodeId r : t.receivers())
        if (rng.next_below(3) == 0) exempt.insert(r);
      const std::size_t want = reference_ksubset(t, k, indices, exempt);
      EXPECT_EQ(est.missed_within(indices, exempt), want)
          << "trial " << trial << " k " << k;
      nonzero += want != 0 ? 1u : 0u;
    }
  }
  EXPECT_GT(nonzero, 100u);  // the comparison is not all zeros
}

TEST(SlotFractionEstimator, MatchesReferenceOnRandomInputs) {
  channel::Rng rng(44);
  std::size_t nonzero = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const ReceptionTable t = random_table(rng);
    std::vector<std::size_t> slot_of(t.universe());
    const std::size_t slots = 1 + rng.next_below(40);
    for (auto& s : slot_of) s = rng.next_below(slots);
    const double safety = 0.5 + 0.5 * rng.next_double();
    const SlotFractionEstimator est(t, slot_of, safety);

    // Per slot, the smallest receiver miss rate, one has() per index.
    std::vector<std::size_t> slot_size(slots, 0);
    for (std::size_t s : slot_of) ++slot_size[s];
    std::vector<double> delta(slots, 0.0);
    for (std::size_t s = 0; s < slots; ++s) {
      if (slot_size[s] == 0) continue;
      double min_rate = 1.0;
      for (packet::NodeId j : t.receivers()) {
        std::size_t missed = 0;
        for (std::uint32_t i = 0; i < t.universe(); ++i)
          if (slot_of[i] == s && !t.has(j, i)) ++missed;
        min_rate = std::min(min_rate, static_cast<double>(missed) /
                                          static_cast<double>(slot_size[s]));
      }
      delta[s] = safety * min_rate;
    }
    for (int q = 0; q < 5; ++q) {
      const std::vector<std::uint32_t> indices =
          random_indices(rng, t.universe());
      double expected = 0.0;
      for (std::uint32_t i : indices) expected += delta[slot_of[i]];
      const auto want = static_cast<std::size_t>(std::floor(expected + 1e-9));
      EXPECT_EQ(est.missed_within(indices, {}), want) << "trial " << trial;
      nonzero += want != 0 ? 1u : 0u;
    }
  }
  EXPECT_GT(nonzero, 100u);
}

TEST(BuildEstimator, DispatchesAllKinds) {
  const ReceptionTable t = table3();
  for (EstimatorKind kind :
       {EstimatorKind::kOracle, EstimatorKind::kLeaveOneOut,
        EstimatorKind::kKSubset, EstimatorKind::kFraction,
        EstimatorKind::kLooFraction, EstimatorKind::kSlotFraction}) {
    EstimatorSpec spec;
    spec.kind = kind;
    const auto est = build_estimator(spec, t, {0, 1}, {});
    ASSERT_NE(est, nullptr);
    EXPECT_FALSE(est->name().empty());
  }
}

TEST(BuildEstimator, GeometryNeedsCells) {
  const ReceptionTable t = table3();
  EstimatorSpec spec;
  spec.kind = EstimatorKind::kGeometry;
  spec.occupied_cells = {0, 1, 2, 3};
  const auto est = build_estimator(spec, t, {}, {}, {1, 2, 3});
  EXPECT_EQ(est->name(), "geometry");
}

}  // namespace
}  // namespace thinair::core
