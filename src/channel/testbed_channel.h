#pragma once
// The composite channel of the paper's deployment (Sec. 4): geometry-driven
// path loss + rotating artificial interference + SINR-based packet loss.
//
// Nodes are placed at positions in the 14 m^2 area (usually cell centres).
// Loss on a link depends only on where its two ends stand and which of the
// 9 noise patterns is active (slot mod 9), so the whole model is evaluated
// in place(): placing or moving node k recomputes the jammers' interference
// at k under each pattern and, for every link with k at either end, the
// received signal power, the SINR and the erasure probability per pattern.
// erasure_probability() and link_sinr_db() are then table lookups at
// slot % 9, bit-identical to evaluating the model on the spot.
//
// Node ids must be below kMaxNodes (64, the same bound as net::NodeSet);
// the table is sized by the highest placed id, so sparse ids cost space.

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "channel/erasure.h"
#include "channel/geometry.h"
#include "channel/interference.h"
#include "channel/pathloss.h"
#include "channel/sinr.h"

namespace thinair::channel {

class TestbedChannel final : public ErasureModel {
 public:
  /// Exclusive bound on node ids accepted by place().
  static constexpr std::size_t kMaxNodes = 64;

  struct Config {
    CellGrid grid{14.0};
    PathLossParams pathloss{};
    InterfererParams interferer{};
    SinrParams sinr{};
    bool interference_enabled = true;

    friend bool operator==(const Config&, const Config&) = default;
  };

  TestbedChannel() : TestbedChannel(Config{}) {}
  explicit TestbedChannel(Config config);

  /// Place (or move) a node and recompute every table entry involving it.
  /// Throws std::out_of_range for an id >= kMaxNodes. Positions default to
  /// cell centres via place_in_cell.
  void place(packet::NodeId node, Vec2 position);
  void place_in_cell(packet::NodeId node, CellIndex cell);

  [[nodiscard]] Vec2 position_of(packet::NodeId node) const;
  [[nodiscard]] CellIndex cell_of(packet::NodeId node) const;

  /// Throws std::out_of_range when either end of the link is unplaced.
  [[nodiscard]] double erasure_probability(
      const LinkContext& link) const override;

  /// SINR (dB) on a link during a slot; exposed for calibration and tests.
  [[nodiscard]] double link_sinr_db(packet::NodeId tx, packet::NodeId rx,
                                    std::size_t slot) const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const InterferenceSchedule& schedule() const {
    return schedule_;
  }

 private:
  using PerPattern = std::array<double, InterferenceSchedule::kPatterns>;
  struct Node {
    std::optional<Vec2> position;  // empty: not placed
    PerPattern interference_mw{};
  };
  struct Link {
    PerPattern sinr_db{};
    PerPattern per{};
  };

  [[nodiscard]] const Link& entry(packet::NodeId tx, packet::NodeId rx) const;
  void fill_link(std::size_t tx, std::size_t rx);

  Config config_;
  LogDistancePathLoss pathloss_;
  InterferenceSchedule schedule_;
  // Indexed by NodeId.value, up to the highest placed id.
  std::vector<Node> nodes_;
  // Row-major [tx][rx] over nodes_.size() nodes.
  std::vector<Link> links_;
};

}  // namespace thinair::channel
