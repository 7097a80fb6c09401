#include "core/reception.h"

#include <algorithm>
#include <bit>
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
  out.reserve(received_count(t));
  for (std::size_t w = 0; w < bm.size(); ++w)
    for (std::uint64_t bits = bm[w]; bits != 0; bits &= bits - 1)
      out.push_back(static_cast<std::uint32_t>(w * 64) +
                    static_cast<std::uint32_t>(std::countr_zero(bits)));
  return out;
}

std::size_t ReceptionTable::received_count(packet::NodeId t) const {
  const auto& bm = bitmaps_[receiver_index(t)];
  std::size_t count = 0;
  for (std::uint64_t w : bm) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

std::vector<ReceptionTable::Class> ReceptionTable::classes() const {
  // One pass over the bitmaps gives every x-index its receiver mask.
  struct Keyed {
    std::uint64_t mask;
    std::uint32_t members;
    std::uint32_t index;
  };
  std::vector<std::uint64_t> mask_of(universe_, 0);
  for (std::size_t r = 0; r < receivers_.size(); ++r) {
    const auto& bm = bitmaps_[r];
    net::NodeSet self;
    self.insert(receivers_[r]);
    for (std::size_t w = 0; w < bm.size(); ++w)
      for (std::uint64_t bits = bm[w]; bits != 0; bits &= bits - 1)
        mask_of[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] |=
            self.mask();
  }
  std::vector<Keyed> keyed;
  keyed.reserve(universe_);
  for (std::uint32_t i = 0; i < universe_; ++i)
    if (mask_of[i] != 0)
      keyed.push_back(Keyed{
          mask_of[i], static_cast<std::uint32_t>(std::popcount(mask_of[i])),
          i});

  // One sort puts the classes in allocation order (most members first,
  // ties by mask) and each class's indices in ascending order.
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.members != b.members) return a.members > b.members;
    if (a.mask != b.mask) return a.mask < b.mask;
    return a.index < b.index;
  });
  std::size_t class_count = 0;
  for (std::size_t k = 0; k < keyed.size(); ++k)
    if (k == 0 || keyed[k].mask != keyed[k - 1].mask) ++class_count;
  std::vector<Class> out;
  out.reserve(class_count);
  for (std::size_t begin = 0; begin < keyed.size();) {
    std::size_t end = begin + 1;
    while (end < keyed.size() && keyed[end].mask == keyed[begin].mask) ++end;
    Class cls{net::NodeSet(keyed[begin].mask), {}};
    cls.indices.reserve(end - begin);
    for (std::size_t k = begin; k < end; ++k)
      cls.indices.push_back(keyed[k].index);
    out.push_back(std::move(cls));
    begin = end;
  }
  return out;
}

}  // namespace thinair::core
