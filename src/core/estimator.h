#pragma once
// Lower-bounding what Eve is missing (Sec. 3.3 of the paper).
//
// To size the secret safely, Alice needs — for any set A of x-packets — a
// lower bound on how many packets of A Eve missed. The protocol queries
// the bound for each terminal's reception set (to size the pair-wise
// secrets M_i) and for each reception class (to cap how many y-packets may
// be drawn from it). The paper proposes several strategies; each is an
// EveBoundEstimator:
//
//  - OracleEstimator: knows Eve's actual receptions. Not realisable, but it
//    is the paper's Figure-1 assumption ("Alice guesses exactly the number
//    of x-packets ... missed by Eve") and the yardstick for the others.
//  - FractionEstimator: "artificial interference ... causes Eve to miss
//    some minimum fraction of the packets" — bound = floor(delta * |A|).
//  - KSubsetEstimator: "pretend that each set of k terminals together are
//    Eve"; k = 1 is the paper's main empirical strategy ("pretend each
//    terminal Tj is Eve"), larger k defends against a k-antenna Eve.
//  - LeaveOneOutEstimator: alias for k = 1.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "channel/geometry.h"
#include "core/reception.h"
#include "net/node_set.h"

namespace thinair::core {

class EveBoundEstimator {
 public:
  virtual ~EveBoundEstimator() = default;

  /// Estimated number of packets in `indices` that Eve missed. `exempt`
  /// lists nodes that must not be treated as adversary stand-ins (the
  /// intended recipients of the secret drawn from this set, plus Alice).
  [[nodiscard]] virtual std::size_t missed_within(
      const std::vector<std::uint32_t>& indices,
      const net::NodeSet& exempt) const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Ideal bound: counts the packets Eve actually missed. Requires Eve's
/// reception set, so it is usable only inside the simulator.
class OracleEstimator final : public EveBoundEstimator {
 public:
  /// `eve_received` = x-indices Eve got; `universe` = N.
  OracleEstimator(const std::vector<std::uint32_t>& eve_received,
                  std::size_t universe);

  [[nodiscard]] std::size_t missed_within(
      const std::vector<std::uint32_t>& indices,
      const net::NodeSet& exempt) const override;
  [[nodiscard]] std::string_view name() const override { return "oracle"; }

 private:
  std::vector<bool> eve_has_;
};

/// Interference-guarantee bound: Eve misses at least `delta` of any set.
class FractionEstimator final : public EveBoundEstimator {
 public:
  explicit FractionEstimator(double delta);

  [[nodiscard]] std::size_t missed_within(
      const std::vector<std::uint32_t>& indices,
      const net::NodeSet& exempt) const override;
  [[nodiscard]] std::string_view name() const override { return "fraction"; }

 private:
  double delta_;
};

/// Empirical bound: pretend every k-subset of the other terminals is Eve
/// (their combined receptions = a k-antenna adversary) and take the worst
/// case. The constructor reads each receiver's reception set once; later
/// changes to the table are not seen. At most 64 receivers.
class KSubsetEstimator final : public EveBoundEstimator {
 public:
  KSubsetEstimator(const ReceptionTable& table, std::size_t k);

  [[nodiscard]] std::size_t missed_within(
      const std::vector<std::uint32_t>& indices,
      const net::NodeSet& exempt) const override;
  [[nodiscard]] std::string_view name() const override { return "k-subset"; }

  [[nodiscard]] std::size_t k() const { return k_; }

 private:
  std::vector<packet::NodeId> receivers_;
  std::size_t k_;
  // holders_[i]: bit r set when receivers_[r] received x-packet i.
  std::vector<std::uint64_t> holders_;
};

/// Empirical fraction bound: measure each pretend-Eve's overall miss rate,
/// take the most pessimistic (smallest) one, derate it by a safety factor,
/// and apply it to any queried set:
///     missed_within(A) = floor(safety * min_j (1 - |R_j|/N) * |A|).
/// This marries the paper's two Sec. 3.3 ideas — "empirically estimate the
/// amount of information missed by Eve based on the amount missed by the
/// terminals" and "interference guarantees Eve misses a minimum *fraction*
/// of any packet set" — and, unlike the raw count estimator, it yields
/// non-vacuous per-class caps, which joint (group) secrecy needs.
class LooFractionEstimator final : public EveBoundEstimator {
 public:
  /// `safety` in (0, 1]: margin against Eve being luckier than every
  /// pretend-Eve. The table must outlive the estimator.
  LooFractionEstimator(const ReceptionTable& table, double safety);

  [[nodiscard]] std::size_t missed_within(
      const std::vector<std::uint32_t>& indices,
      const net::NodeSet& exempt) const override;
  [[nodiscard]] std::string_view name() const override {
    return "loo-fraction";
  }

  /// The derated miss fraction currently implied by the table.
  [[nodiscard]] double delta() const;

 private:
  const ReceptionTable& table_;
  double safety_;
};

/// The slot-stratified refinement of the empirical fraction bound, and the
/// library's default for deployments with artificial interference.
///
/// The interference schedule is public (Sec. 4: patterns rotate through
/// known time slots), so the terminals know which noise pattern governed
/// each x-packet. Within one slot every receiver — wherever it stands —
/// faces one of a few channel regimes (in a jammed corridor or not), and
/// the terminals' own per-slot miss rates are hypotheses for Eve's. Taking
/// the *minimum* miss rate over all terminals per slot bounds what any
/// receiver, Eve included, must have missed in that slot's packets:
///     missed_within(A) = floor(sum_s safety * min_j missrate_j(s) * |A_s|).
/// The more terminals, the more hypotheses per slot, the safer the bound —
/// which is exactly the paper's explanation of Figure 2's n-trend ("the
/// fewer the terminals, the less accurate the estimate").
class SlotFractionEstimator final : public EveBoundEstimator {
 public:
  /// `slot_of[i]` = interference slot in which x_i was transmitted. The
  /// constructor reads each receiver's reception set once.
  SlotFractionEstimator(const ReceptionTable& table,
                        std::vector<std::size_t> slot_of, double safety);

  [[nodiscard]] std::size_t missed_within(
      const std::vector<std::uint32_t>& indices,
      const net::NodeSet& exempt) const override;
  [[nodiscard]] std::string_view name() const override {
    return "slot-fraction";
  }

  /// The derated per-slot miss-fraction bounds (indexed by slot id).
  [[nodiscard]] const std::vector<double>& slot_delta() const {
    return delta_;
  }

 private:
  std::vector<std::size_t> slot_of_;
  std::vector<double> delta_;
};

/// The geometry-aware bound: the paper's artificial-interference design
/// made sound by its own minimum-distance rule.
///
/// The paper requires every node — Eve included — to stand in its own
/// logical cell ("each cell is occupied by at most one node", min distance
/// 1.75 m), and the 9-pattern jamming schedule is public. Therefore Eve
/// sits in one of the cells the terminals do NOT occupy, and for each such
/// hypothesis the terminals know exactly which slots jam her. Combining
/// that with measured per-regime loss rates (how much their own jammed /
/// clear members missed per slot) bounds Eve's misses in any packet set:
///     missed(A) >= min over free cells e of
///                  sum_s rate(e jammed in s ? jam : clear) * |A_s|.
/// This is the only estimator here whose caps are sound per *class* under
/// location-structured channels, so it is the testbed default; the price
/// is that it needs the placement discipline the paper already assumes.
class GeometryEstimator final : public EveBoundEstimator {
 public:
  /// `occupied_cells` = cell index of every terminal (Alice + receivers);
  /// `receiver_cells` = cell index per table.receivers() entry (used to
  /// classify each receiver as jammed/clear per slot when measuring
  /// rates). `slot_of` as in SlotFractionEstimator. `eve_antennas` > 1
  /// defends against a multi-antenna Eve occupying that many free cells
  /// at once (Sec. 6's challenge): a packet is missed only when *every*
  /// antenna misses it, so per-slot rates multiply across the hypothesis
  /// subset and the bound minimises over all k-subsets of free cells.
  GeometryEstimator(const ReceptionTable& table,
                    std::vector<std::size_t> slot_of,
                    const std::vector<std::size_t>& occupied_cells,
                    const std::vector<std::size_t>& receiver_cells,
                    double safety, std::size_t eve_antennas = 1);

  [[nodiscard]] std::size_t missed_within(
      const std::vector<std::uint32_t>& indices,
      const net::NodeSet& exempt) const override;
  [[nodiscard]] std::string_view name() const override { return "geometry"; }

  [[nodiscard]] double jam_rate() const { return jam_rate_; }
  [[nodiscard]] double clear_rate() const { return clear_rate_; }
  [[nodiscard]] const std::vector<std::size_t>& candidate_cells() const {
    return candidates_;
  }

 private:
  // channel::InterferenceSchedule::kPatterns, and the most k-subsets
  // the 9 cells of the grid have, C(9, 4).
  static constexpr std::size_t kPatterns = 9;
  static constexpr std::size_t kMaxSubsets = 126;

  std::vector<std::uint8_t> pattern_of_;  // x-index -> noise pattern
  std::vector<std::size_t> candidates_;   // free cells = Eve hypotheses
  double safety_;
  std::size_t eve_antennas_;
  double jam_rate_ = 1.0;    // measured miss rate of jammed receivers
  double clear_rate_ = 0.0;  // measured miss rate of clear receivers
  // Per k-subset of candidates, in enumeration order: the probability that
  // every antenna misses a packet sent under each pattern.
  std::vector<std::array<double, kPatterns>> subset_miss_;
};

/// Which Sec. 3.3 strategy sizes the secrets.
enum class EstimatorKind : std::uint8_t {
  kOracle,        // Figure 1's assumption: exact knowledge of Eve's misses
  kLeaveOneOut,   // pretend each other terminal is Eve (raw counts)
  kKSubset,       // pretend each k-subset of terminals is a k-antenna Eve
  kFraction,      // fixed interference guarantee: Eve misses >= delta
  kLooFraction,   // measured min miss-rate with safety margin
  kSlotFraction,  // per-noise-pattern min miss-rate
  kGeometry,      // free-cell hypotheses + schedule geometry (testbed default)
};

[[nodiscard]] std::string_view to_string(EstimatorKind kind);

/// Inverse of to_string: "oracle", "leave-one-out", "k-subset", ... .
/// nullopt when `name` keys no estimator.
[[nodiscard]] std::optional<EstimatorKind> estimator_kind_from_string(
    std::string_view name);

/// All valid estimator names, in enum order (for error messages and docs).
[[nodiscard]] const std::vector<std::string_view>& estimator_kind_names();

/// Declarative estimator choice carried inside session configs.
struct EstimatorSpec {
  EstimatorKind kind = EstimatorKind::kGeometry;
  /// Adversary antennas to defend against (kKSubset and kGeometry).
  std::size_t k_antennas = 1;
  double fraction_delta = 0.30;  // for kFraction
  double loo_safety = 0.75;      // safety margin for the fraction/geometry kinds
  /// Cell of every terminal (Alice first is not required; order matches
  /// terminal node-id order). Required by kGeometry; filled automatically
  /// by testbed::run_experiment.
  std::vector<std::size_t> occupied_cells;
};

/// Instantiate the estimator a spec describes. `table` must outlive the
/// estimator; `eve_received` is consulted only by the oracle; `slot_of`
/// (x-index -> interference slot) only by the slot-aware kinds, which fall
/// back to a single slot when it is empty; `receiver_cells` (cell per
/// table.receivers() entry) only by kGeometry.
[[nodiscard]] std::unique_ptr<EveBoundEstimator> build_estimator(
    const EstimatorSpec& spec, const ReceptionTable& table,
    const std::vector<std::uint32_t>& eve_received,
    const std::vector<std::size_t>& slot_of = {},
    const std::vector<std::size_t>& receiver_cells = {});

}  // namespace thinair::core
