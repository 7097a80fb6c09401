#pragma once
// Reception bookkeeping for one protocol round.
//
// After Alice transmits her N x-packets (phase 1 step 1) every terminal
// reliably broadcasts which of them it received (step 2). This table stores
// those reports and derives the structure the pool construction needs: the
// partition of x-indices into *classes* by exact reception pattern (the set
// of receivers that got the packet). Classes have disjoint x-support, which
// is what makes per-class MDS coding jointly secret (see pool.h).

#include <cstdint>
#include <vector>

#include "net/node_set.h"
#include "packet/types.h"

namespace thinair::core {

/// Reception state of one round: Alice (who knows all N packets she sent)
/// plus the reports of the other terminals.
class ReceptionTable {
 public:
  /// `receivers` = the terminals other than Alice, in protocol order.
  ReceptionTable(packet::NodeId alice, std::vector<packet::NodeId> receivers,
                 std::size_t universe);

  [[nodiscard]] packet::NodeId alice() const { return alice_; }
  [[nodiscard]] const std::vector<packet::NodeId>& receivers() const {
    return receivers_;
  }
  [[nodiscard]] std::size_t universe() const { return universe_; }

  /// Record terminal t's report (indices must be < universe, any order).
  void set_received(packet::NodeId t, const std::vector<std::uint32_t>& idx);

  [[nodiscard]] bool has(packet::NodeId t, std::uint32_t index) const;
  [[nodiscard]] std::vector<std::uint32_t> received(packet::NodeId t) const;
  [[nodiscard]] std::size_t received_count(packet::NodeId t) const;

  /// One reception class: the x-indices received by exactly the receiver
  /// set `members` (Alice implicitly knows them all).
  struct Class {
    net::NodeSet members;
    std::vector<std::uint32_t> indices;
  };

  /// The classes with a non-empty receiver set, ordered by descending
  /// member count (ties broken by mask) — the order the pool builder
  /// allocates in. Packets nobody received are excluded: they can never
  /// contribute to a shared secret.
  [[nodiscard]] std::vector<Class> classes() const;

 private:
  [[nodiscard]] std::size_t receiver_index(packet::NodeId t) const;

  packet::NodeId alice_;
  std::vector<packet::NodeId> receivers_;
  std::size_t universe_;
  // bitmaps_[r][w]: words of the reception bitmap of receiver r.
  std::vector<std::vector<std::uint64_t>> bitmaps_;
};

}  // namespace thinair::core
