#include "packet/combination.h"

#include <cassert>
#include <stdexcept>

#include "gf/kernels.h"

namespace thinair::packet {

ConstByteSpan Combination::apply(std::span<const ConstByteSpan> inputs,
                                 std::size_t payload_size,
                                 PayloadArena& arena) const {
  ByteSpan out = arena.alloc(payload_size);
  if (out.empty()) {
    // Zero-length payloads carry no bytes to combine; return before any
    // in.data() is formed (an empty vector's data() may be null). The
    // throwing bounds check below is skipped here, so keep the index
    // invariant visible to debug builds.
    for ([[maybe_unused]] const Term& t : terms_)
      assert(t.index < inputs.size() &&
             "Combination term index out of range");
    return out;
  }
  // Fused on the gather side: the terms batch through gf::DotBatch so the
  // output payload is loaded/stored once per block of gf::kMaxFusedRows
  // terms instead of once per term.
  gf::DotBatch batch(out.data(), out.size());
  for (const Term& t : terms_) {
    if (t.index >= inputs.size())
      throw std::out_of_range("Combination::apply: index out of range");
    const ConstByteSpan in = inputs[t.index];
    if (in.size() != out.size())
      throw std::invalid_argument("Combination::apply: payload size mismatch");
    batch.add(t.coeff.value(), in.data());
  }
  batch.flush();
  return out;
}

}  // namespace thinair::packet
