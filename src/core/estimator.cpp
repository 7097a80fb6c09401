#include "core/estimator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "channel/geometry.h"
#include "channel/interference.h"
#include "util/ksubset.h"

namespace thinair::core {

OracleEstimator::OracleEstimator(const std::vector<std::uint32_t>& eve_received,
                                 std::size_t universe)
    : eve_has_(universe, false) {
  for (std::uint32_t i : eve_received) {
    if (i >= universe)
      throw std::out_of_range("OracleEstimator: index >= universe");
    eve_has_[i] = true;
  }
}

std::size_t OracleEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  std::size_t missed = 0;
  for (std::uint32_t i : indices)
    if (i >= eve_has_.size() || !eve_has_[i]) ++missed;
  return missed;
}

FractionEstimator::FractionEstimator(double delta) : delta_(delta) {
  if (delta < 0.0 || delta > 1.0)
    throw std::invalid_argument("FractionEstimator: delta outside [0, 1]");
}

std::size_t FractionEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  return static_cast<std::size_t>(
      std::floor(delta_ * static_cast<double>(indices.size())));
}

KSubsetEstimator::KSubsetEstimator(const ReceptionTable& table, std::size_t k)
    : receivers_(table.receivers()), k_(k), holders_(table.universe(), 0) {
  if (k == 0) throw std::invalid_argument("KSubsetEstimator: k == 0");
  if (receivers_.size() > 64)
    throw std::invalid_argument("KSubsetEstimator: more than 64 receivers");
  for (std::size_t r = 0; r < receivers_.size(); ++r)
    for (std::uint32_t i : table.received(receivers_[r]))
      holders_[i] |= std::uint64_t{1} << r;
}

std::size_t KSubsetEstimator::missed_within(
    const std::vector<std::uint32_t>& indices,
    const net::NodeSet& exempt) const {
  // Adversary stand-ins: every receiver not exempted, by position.
  std::array<std::size_t, 64> candidates{};
  std::size_t count = 0;
  for (std::size_t r = 0; r < receivers_.size(); ++r)
    if (!exempt.contains(receivers_[r])) candidates[count++] = r;
  if (count == 0) return 0;  // nothing to compare against: assume Eve got all

  // Enumerate k-subsets; for each, count indices missed by *all* members
  // (the subset's union reception is what a k-antenna Eve would hold).
  std::array<std::size_t, 64> pick_storage{};
  const std::span<std::size_t> pick(pick_storage.data(),
                                    std::min(k_, count));
  std::iota(pick.begin(), pick.end(), std::size_t{0});
  std::size_t best = indices.size();
  do {
    std::uint64_t members = 0;
    for (std::size_t p : pick) members |= std::uint64_t{1} << candidates[p];
    std::size_t missed = 0;
    for (std::uint32_t idx : indices)
      if (idx >= holders_.size() || (holders_[idx] & members) == 0) ++missed;
    best = std::min(best, missed);
  } while (util::next_k_subset(pick, count));
  return best;
}

LooFractionEstimator::LooFractionEstimator(const ReceptionTable& table,
                                           double safety)
    : table_(table), safety_(safety) {
  if (safety <= 0.0 || safety > 1.0)
    throw std::invalid_argument("LooFractionEstimator: safety outside (0, 1]");
}

double LooFractionEstimator::delta() const {
  // The miss *rate* is a global channel-quality property, so every
  // terminal's rate is a valid hypothesis sample for Eve's — unlike the
  // count estimator, no exemptions apply (exempting a class's members
  // would leave wide classes without hypotheses at all).
  const double n = static_cast<double>(table_.universe());
  if (n == 0.0 || table_.receivers().empty()) return 0.0;
  double min_miss = 1.0;
  for (packet::NodeId j : table_.receivers()) {
    const double miss =
        1.0 - static_cast<double>(table_.received_count(j)) / n;
    min_miss = std::min(min_miss, miss);
  }
  return safety_ * min_miss;
}

std::size_t LooFractionEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  return static_cast<std::size_t>(
      std::floor(delta() * static_cast<double>(indices.size())));
}

SlotFractionEstimator::SlotFractionEstimator(const ReceptionTable& table,
                                             std::vector<std::size_t> slot_of,
                                             double safety)
    : slot_of_(std::move(slot_of)) {
  if (safety <= 0.0 || safety > 1.0)
    throw std::invalid_argument("SlotFractionEstimator: safety outside (0, 1]");
  if (slot_of_.empty())
    slot_of_.assign(table.universe(), 0);  // degenerate: one global slot
  if (slot_of_.size() != table.universe())
    throw std::invalid_argument("SlotFractionEstimator: slot_of size");

  std::size_t slots = 0;
  for (std::size_t s : slot_of_) slots = std::max(slots, s + 1);

  // Per slot, per receiver: miss count within the slot's packets, from
  // one read of each receiver's reception set.
  std::vector<std::size_t> slot_size(slots, 0);
  for (std::size_t s : slot_of_) ++slot_size[s];

  std::vector<double> min_rate(slots, 1.0);
  std::vector<std::size_t> got(slots);
  for (packet::NodeId j : table.receivers()) {
    std::fill(got.begin(), got.end(), std::size_t{0});
    for (std::uint32_t i : table.received(j)) ++got[slot_of_[i]];
    for (std::size_t s = 0; s < slots; ++s)
      if (slot_size[s] != 0)
        min_rate[s] =
            std::min(min_rate[s], static_cast<double>(slot_size[s] - got[s]) /
                                      static_cast<double>(slot_size[s]));
  }
  delta_.assign(slots, 0.0);
  if (!table.receivers().empty())
    for (std::size_t s = 0; s < slots; ++s)
      if (slot_size[s] != 0) delta_[s] = safety * min_rate[s];
}

std::size_t SlotFractionEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  // Like the global fraction bound, this estimates a channel property, so
  // no hypothesis exemptions apply (see LooFractionEstimator).
  double expected = 0.0;
  for (std::uint32_t i : indices) {
    if (i >= slot_of_.size())
      throw std::out_of_range("SlotFractionEstimator: index out of range");
    expected += delta_[slot_of_[i]];
  }
  // Epsilon guards against accumulated floating-point shortfall turning an
  // exact integral bound into the next integer down.
  return static_cast<std::size_t>(std::floor(expected + 1e-9));
}

GeometryEstimator::GeometryEstimator(
    const ReceptionTable& table, std::vector<std::size_t> slot_of,
    const std::vector<std::size_t>& occupied_cells,
    const std::vector<std::size_t>& receiver_cells, double safety,
    std::size_t eve_antennas)
    : safety_(safety), eve_antennas_(eve_antennas) {
  static_assert(kPatterns == channel::InterferenceSchedule::kPatterns);
  static_assert(channel::CellGrid::kCells == 9 && kMaxSubsets == 126,
                "no k-subset count of 9 cells exceeds C(9, 4) = 126");
  if (safety <= 0.0 || safety > 1.0)
    throw std::invalid_argument("GeometryEstimator: safety outside (0, 1]");
  if (eve_antennas == 0)
    throw std::invalid_argument("GeometryEstimator: zero antennas");
  if (slot_of.empty()) slot_of.assign(table.universe(), 0);
  if (slot_of.size() != table.universe())
    throw std::invalid_argument("GeometryEstimator: slot_of size");
  if (receiver_cells.size() != table.receivers().size())
    throw std::invalid_argument("GeometryEstimator: receiver_cells size");

  // Eve hypotheses: every cell no terminal occupies (the paper's placement
  // rule guarantees Eve is in one of them).
  std::array<bool, channel::CellGrid::kCells> occupied{};
  for (std::size_t c : occupied_cells) {
    if (c >= channel::CellGrid::kCells)
      throw std::out_of_range("GeometryEstimator: cell index");
    occupied[c] = true;
  }
  for (std::size_t c = 0; c < channel::CellGrid::kCells; ++c)
    if (!occupied[c]) candidates_.push_back(c);
  if (candidates_.empty())
    throw std::invalid_argument("GeometryEstimator: no free cell for Eve");

  // Slots rotate through the patterns round-robin: pattern(q) for
  // q = slot % kPatterns is the pattern of the slot.
  const channel::InterferenceSchedule schedule{channel::CellGrid{}};
  std::array<std::size_t, kPatterns> sent{};  // x-packets per pattern
  pattern_of_.reserve(slot_of.size());
  for (std::size_t slot : slot_of) {
    pattern_of_.push_back(static_cast<std::uint8_t>(slot % kPatterns));
    ++sent[pattern_of_.back()];
  }

  // Measure the two channel regimes from the receivers' own reports, one
  // read of each receiver's reception set.
  std::size_t jam_missed = 0, jam_total = 0;
  std::size_t clear_missed = 0, clear_total = 0;
  for (std::size_t ri = 0; ri < table.receivers().size(); ++ri) {
    const channel::CellIndex cell{receiver_cells[ri]};
    std::array<std::size_t, kPatterns> got{};
    for (std::uint32_t i : table.received(table.receivers()[ri]))
      ++got[pattern_of_[i]];
    for (std::size_t q = 0; q < kPatterns; ++q) {
      const std::size_t missed = sent[q] - got[q];
      if (channel::InterferenceSchedule::is_jammed(cell, schedule.pattern(q))) {
        jam_total += sent[q];
        jam_missed += missed;
      } else {
        clear_total += sent[q];
        clear_missed += missed;
      }
    }
  }
  jam_rate_ = jam_total == 0 ? 1.0
                             : static_cast<double>(jam_missed) /
                                   static_cast<double>(jam_total);
  clear_rate_ = clear_total == 0 ? 0.0
                                 : static_cast<double>(clear_missed) /
                                       static_cast<double>(clear_total);

  // Per k-subset of candidate cells, the probability that every antenna
  // misses a packet sent under each pattern: per-slot rates multiply.
  const std::size_t k = std::min(eve_antennas_, candidates_.size());
  std::vector<std::size_t> pick(k);
  std::iota(pick.begin(), pick.end(), std::size_t{0});
  do {
    std::array<double, kPatterns>& miss = subset_miss_.emplace_back();
    for (std::size_t q = 0; q < kPatterns; ++q) {
      miss[q] = 1.0;
      for (std::size_t p : pick) {
        const bool jammed = channel::InterferenceSchedule::is_jammed(
            channel::CellIndex{candidates_[p]}, schedule.pattern(q));
        miss[q] *= jammed ? jam_rate_ : clear_rate_;
      }
    }
  } while (util::next_k_subset(pick, candidates_.size()));
}

std::size_t GeometryEstimator::missed_within(
    const std::vector<std::uint32_t>& indices, const net::NodeSet&) const {
  // One running sum per antenna subset, each adding the indices in order;
  // the bound is the smallest.
  std::array<double, kMaxSubsets> expected{};
  const std::size_t subsets = subset_miss_.size();
  for (std::uint32_t i : indices) {
    if (i >= pattern_of_.size())
      throw std::out_of_range("GeometryEstimator: index out of range");
    const std::size_t q = pattern_of_[i];
    for (std::size_t s = 0; s < subsets; ++s)
      expected[s] += subset_miss_[s][q];
  }
  const double worst =
      *std::min_element(expected.begin(), expected.begin() + subsets);
  return static_cast<std::size_t>(std::floor(safety_ * worst + 1e-9));
}

std::string_view to_string(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kOracle: return "oracle";
    case EstimatorKind::kLeaveOneOut: return "leave-one-out";
    case EstimatorKind::kKSubset: return "k-subset";
    case EstimatorKind::kFraction: return "fraction";
    case EstimatorKind::kLooFraction: return "loo-fraction";
    case EstimatorKind::kSlotFraction: return "slot-fraction";
    case EstimatorKind::kGeometry: return "geometry";
  }
  return "unknown";
}

namespace {

// The one list both string functions derive from; to_string's switch is
// exhaustive (compiler-checked), so a kind added there only needs one
// entry here to become parseable and show up in help text.
constexpr EstimatorKind kAllEstimatorKinds[] = {
    EstimatorKind::kOracle,      EstimatorKind::kLeaveOneOut,
    EstimatorKind::kKSubset,     EstimatorKind::kFraction,
    EstimatorKind::kLooFraction, EstimatorKind::kSlotFraction,
    EstimatorKind::kGeometry};

}  // namespace

std::optional<EstimatorKind> estimator_kind_from_string(
    std::string_view name) {
  for (const EstimatorKind kind : kAllEstimatorKinds)
    if (name == to_string(kind)) return kind;
  return std::nullopt;
}

const std::vector<std::string_view>& estimator_kind_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out;
    for (const EstimatorKind kind : kAllEstimatorKinds)
      out.push_back(to_string(kind));
    return out;
  }();
  return names;
}

std::unique_ptr<EveBoundEstimator> build_estimator(
    const EstimatorSpec& spec, const ReceptionTable& table,
    const std::vector<std::uint32_t>& eve_received,
    const std::vector<std::size_t>& slot_of,
    const std::vector<std::size_t>& receiver_cells) {
  switch (spec.kind) {
    case EstimatorKind::kOracle:
      return std::make_unique<OracleEstimator>(eve_received,
                                               table.universe());
    case EstimatorKind::kLeaveOneOut:
      return std::make_unique<KSubsetEstimator>(table, 1);
    case EstimatorKind::kKSubset:
      return std::make_unique<KSubsetEstimator>(table, spec.k_antennas);
    case EstimatorKind::kFraction:
      return std::make_unique<FractionEstimator>(spec.fraction_delta);
    case EstimatorKind::kLooFraction:
      return std::make_unique<LooFractionEstimator>(table, spec.loo_safety);
    case EstimatorKind::kSlotFraction:
      return std::make_unique<SlotFractionEstimator>(table, slot_of,
                                                     spec.loo_safety);
    case EstimatorKind::kGeometry:
      return std::make_unique<GeometryEstimator>(
          table, slot_of, spec.occupied_cells, receiver_cells,
          spec.loo_safety, spec.k_antennas);
  }
  throw std::logic_error("build_estimator: unknown estimator kind");
}

}  // namespace thinair::core
