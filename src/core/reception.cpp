#include "core/reception.h"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

namespace thinair::core {

ReceptionTable::ReceptionTable(packet::NodeId alice,
                               std::vector<packet::NodeId> receivers,
                               std::size_t universe)
    : alice_(alice), receivers_(std::move(receivers)), universe_(universe) {
  for (packet::NodeId r : receivers_)
    if (r == alice_)
      throw std::invalid_argument("ReceptionTable: Alice among receivers");
  const std::size_t words = (universe_ + 63) / 64;
  bitmaps_.assign(receivers_.size(), std::vector<std::uint64_t>(words, 0));
}

std::size_t ReceptionTable::receiver_index(packet::NodeId t) const {
  const auto it = std::find(receivers_.begin(), receivers_.end(), t);
  if (it == receivers_.end())
    throw std::out_of_range("ReceptionTable: unknown receiver");
  return static_cast<std::size_t>(it - receivers_.begin());
}

void ReceptionTable::set_received(packet::NodeId t,
                                  const std::vector<std::uint32_t>& idx) {
  auto& bm = bitmaps_[receiver_index(t)];
  std::fill(bm.begin(), bm.end(), 0);
  for (std::uint32_t i : idx) {
    if (i >= universe_)
      throw std::out_of_range("ReceptionTable: index >= universe");
    bm[i / 64] |= (std::uint64_t{1} << (i % 64));
  }
}

bool ReceptionTable::has(packet::NodeId t, std::uint32_t index) const {
  if (index >= universe_) return false;
  const auto& bm = bitmaps_[receiver_index(t)];
  return (bm[index / 64] >> (index % 64)) & 1;
}

std::vector<std::uint32_t> ReceptionTable::received(packet::NodeId t) const {
  const auto& bm = bitmaps_[receiver_index(t)];
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < universe_; ++i)
    if ((bm[i / 64] >> (i % 64)) & 1) out.push_back(i);
  return out;
}

std::size_t ReceptionTable::received_count(packet::NodeId t) const {
  const auto& bm = bitmaps_[receiver_index(t)];
  std::size_t count = 0;
  for (std::uint64_t w : bm) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

std::vector<ReceptionTable::Class> ReceptionTable::classes() const {
  std::map<std::uint64_t, std::vector<std::uint32_t>> by_mask;
  for (std::uint32_t i = 0; i < universe_; ++i) {
    net::NodeSet members;
    for (std::size_t r = 0; r < receivers_.size(); ++r)
      if ((bitmaps_[r][i / 64] >> (i % 64)) & 1) members.insert(receivers_[r]);
    if (!members.empty()) by_mask[members.mask()].push_back(i);
  }
  std::vector<Class> out;
  out.reserve(by_mask.size());
  for (auto& [mask, indices] : by_mask) {
    net::NodeSet members;
    for (packet::NodeId r : receivers_)
      if ((mask >> r.value) & 1) members.insert(r);
    out.push_back(Class{members, std::move(indices)});
  }
  std::sort(out.begin(), out.end(), [](const Class& a, const Class& b) {
    if (a.members.size() != b.members.size())
      return a.members.size() > b.members.size();
    return a.members.mask() < b.members.mask();
  });
  return out;
}

}  // namespace thinair::core
