#pragma once
// A set of nodes as a bitmask over node-id values (< 64): the delivery
// set of one transmission, the audience of a y-packet, the exempt set of
// an Eve-bound query.

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "packet/types.h"

namespace thinair::net {

class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::uint64_t mask) : mask_(mask) {}

  void insert(packet::NodeId id) {
    if (id.value >= 64) throw std::out_of_range("NodeSet: id >= 64");
    mask_ |= (std::uint64_t{1} << id.value);
  }
  [[nodiscard]] bool contains(packet::NodeId id) const {
    return id.value < 64 && ((mask_ >> id.value) & 1) != 0;
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  [[nodiscard]] bool empty() const { return mask_ == 0; }
  [[nodiscard]] std::uint64_t mask() const { return mask_; }
  NodeSet& operator|=(NodeSet other) {
    mask_ |= other.mask_;
    return *this;
  }

  friend bool operator==(const NodeSet&, const NodeSet&) = default;

 private:
  std::uint64_t mask_ = 0;
};

}  // namespace thinair::net
