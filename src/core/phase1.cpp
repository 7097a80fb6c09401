#include "core/phase1.h"

#include <stdexcept>

#include "gf/encode.h"

namespace thinair::core {

Phase1Result run_phase1(const ReceptionTable& table,
                        const EveBoundEstimator& estimator,
                        PoolStrategy strategy) {
  Phase1Result result{build_pool(table, estimator, strategy), {}};
  result.announcement.combinations = result.build.pool.combinations();
  return result;
}

std::vector<packet::ConstByteSpan> all_y_contents(
    const YPool& pool, std::span<const packet::ConstByteSpan> x_payloads,
    std::size_t payload_size, packet::PayloadArena& arena) {
  // Fused path: the dense pool matrix and every output live in the arena;
  // each x-payload is streamed once per block of gf::kMaxFusedRows y-rows
  // instead of once per row. gf::encode validates sizes and counts.
  return gf::encode(pool.rows(arena), x_payloads, payload_size, arena);
}

std::vector<packet::ConstByteSpan> reconstruct_y(
    const YPool& pool, packet::NodeId terminal,
    std::span<const packet::ConstByteSpan> x_payloads,
    std::size_t payload_size, packet::PayloadArena& arena) {
  if (payload_size == 0)
    throw std::invalid_argument("reconstruct_y: payload_size == 0");
  if (x_payloads.size() != pool.universe())
    throw std::invalid_argument("reconstruct_y: payload count != universe");

  std::vector<packet::ConstByteSpan> out(pool.size());
  for (std::size_t j = 0; j < pool.size(); ++j) {
    const YPool::Entry& e = pool.entries()[j];
    if (e.audience.contains(terminal))
      out[j] = e.combo.apply(x_payloads, payload_size, arena);
  }
  return out;
}

}  // namespace thinair::core
