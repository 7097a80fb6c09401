#include "channel/testbed_channel.h"

#include <stdexcept>

namespace thinair::channel {

TestbedChannel::TestbedChannel(Config config)
    : config_(config),
      pathloss_(config.pathloss),
      schedule_(config.grid, config.interferer) {}

void TestbedChannel::place(packet::NodeId node, Vec2 position) {
  const std::size_t k = node.value;
  if (k >= kMaxNodes)
    throw std::out_of_range("TestbedChannel: node id >= 64");
  const std::size_t n = nodes_.size();
  if (k >= n) {  // widen the table, keeping every computed link
    std::vector<Link> links((k + 1) * (k + 1));
    for (std::size_t tx = 0; tx < n; ++tx)
      for (std::size_t rx = 0; rx < n; ++rx)
        links[tx * (k + 1) + rx] = links_[tx * n + rx];
    links_ = std::move(links);
    nodes_.resize(k + 1);
  }

  nodes_[k].position = position;
  for (std::size_t p = 0; p < InterferenceSchedule::kPatterns; ++p)
    nodes_[k].interference_mw[p] =
        config_.interference_enabled
            ? schedule_.interference_mw(position, p, pathloss_)
            : 0.0;
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (!nodes_[j].position) continue;
    fill_link(k, j);
    if (j != k) fill_link(j, k);
  }
}

void TestbedChannel::fill_link(std::size_t tx, std::size_t rx) {
  const double signal_mw = pathloss_.rx_power_mw(
      distance(*nodes_[tx].position, *nodes_[rx].position));
  Link& l = links_[tx * nodes_.size() + rx];
  for (std::size_t p = 0; p < InterferenceSchedule::kPatterns; ++p) {
    l.sinr_db[p] =
        sinr_db(signal_mw, nodes_[rx].interference_mw[p], config_.sinr);
    l.per[p] = packet_error_rate(l.sinr_db[p], config_.sinr);
  }
}

void TestbedChannel::place_in_cell(packet::NodeId node, CellIndex cell) {
  place(node, config_.grid.center(cell));
}

Vec2 TestbedChannel::position_of(packet::NodeId node) const {
  if (node.value >= nodes_.size() || !nodes_[node.value].position)
    throw std::out_of_range("TestbedChannel: node not placed");
  return *nodes_[node.value].position;
}

CellIndex TestbedChannel::cell_of(packet::NodeId node) const {
  return config_.grid.cell_of(position_of(node));
}

const TestbedChannel::Link& TestbedChannel::entry(packet::NodeId tx,
                                                  packet::NodeId rx) const {
  const std::size_t n = nodes_.size();
  if (tx.value >= n || rx.value >= n || !nodes_[tx.value].position ||
      !nodes_[rx.value].position)
    throw std::out_of_range("TestbedChannel: node not placed");
  return links_[tx.value * n + rx.value];
}

double TestbedChannel::link_sinr_db(packet::NodeId tx, packet::NodeId rx,
                                    std::size_t slot) const {
  return entry(tx, rx).sinr_db[slot % InterferenceSchedule::kPatterns];
}

double TestbedChannel::erasure_probability(const LinkContext& link) const {
  return entry(link.tx, link.rx)
      .per[link.slot % InterferenceSchedule::kPatterns];
}

}  // namespace thinair::channel
