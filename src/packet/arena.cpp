#include "packet/arena.h"

#include <algorithm>
#include <cstring>

namespace thinair::packet {

namespace {

// One cache line, and one AVX-512 vector: a span starts on its own line,
// so a kernel's masked tail store into one span never shares a line with
// the first loads of the next.
constexpr std::size_t kAlign = 64;

constexpr std::size_t align_up(std::size_t v) {
  return (v + (kAlign - 1)) & ~(kAlign - 1);
}

}  // namespace

PayloadArena::PayloadArena(std::size_t block_bytes)
    : block_bytes_(std::max(block_bytes, kAlign)) {}

std::uint8_t* PayloadArena::grow(std::size_t n) {
  // Advance to an existing block that can hold n bytes at an aligned
  // cursor, or append one. All comparisons are additions against the
  // block size — offset_ can legally sit past an alignment bump, so
  // `size - offset_` style subtraction would underflow.
  while (cursor_ < blocks_.size()) {
    const Block& blk = blocks_[cursor_];
    std::uint8_t* base = blk.data.get();
    std::size_t aligned = offset_;
    const auto misalign =
        reinterpret_cast<std::uintptr_t>(base + aligned) & (kAlign - 1);
    if (misalign != 0) aligned += kAlign - misalign;
    if (aligned <= blk.size && blk.size - aligned >= n) {
      offset_ = aligned;
      return base + aligned;
    }
    ++cursor_;
    offset_ = 0;
  }
  // new[] of uint8_t carries only fundamental alignment; over-allocate
  // by kAlign so an aligned cursor plus n always fits.
  const std::size_t size = std::max(block_bytes_, n) + kAlign;
  Block b;
  b.data = std::make_unique_for_overwrite<std::uint8_t[]>(size);
  b.size = size;
  blocks_.push_back(std::move(b));
  cursor_ = blocks_.size() - 1;  // also repairs a stale (e.g. moved-from) cursor
  std::uint8_t* base = blocks_[cursor_].data.get();
  offset_ = 0;
  const auto misalign =
      reinterpret_cast<std::uintptr_t>(base) & (kAlign - 1);
  if (misalign != 0) offset_ = kAlign - misalign;
  return base + offset_;
}

ByteSpan PayloadArena::alloc_uninit(std::size_t n) {
  if (n == 0) return {};
  std::uint8_t* p = grow(n);
  offset_ += n;
  allocated_ += n;
  return {p, n};
}

ByteSpan PayloadArena::alloc(std::size_t n) {
  if (n == 0) return {};  // memset's pointer is declared nonnull
  ByteSpan s = alloc_uninit(n);
  std::memset(s.data(), 0, s.size());
  return s;
}

std::vector<ByteSpan> PayloadArena::alloc_rows(std::size_t count,
                                               std::size_t n) {
  std::vector<ByteSpan> rows(count);
  for (ByteSpan& row : rows) row = alloc(n);
  return rows;
}

ByteSpan PayloadArena::copy(ConstByteSpan src) {
  if (src.empty()) return {};
  ByteSpan s = alloc_uninit(src.size());
  std::memcpy(s.data(), src.data(), src.size());
  return s;
}

void PayloadArena::reset() {
  // Raise the watermark to this epoch's peak immediately, but let it
  // *decay* geometrically when epochs shrink: after a handful of small
  // epochs the watermark — and with it the retained capacity under
  // trim_to_watermark() — converges back down instead of remembering one
  // pathological epoch forever.
  const std::size_t peak = std::max(peak_, allocated_);
  watermark_ = std::max(peak, watermark_ - watermark_ / 4);
  cursor_ = 0;
  offset_ = 0;
  allocated_ = 0;
  peak_ = 0;
}

std::size_t PayloadArena::trim(std::size_t max_retained_bytes) {
  std::size_t held = capacity();
  std::size_t freed = 0;
  // Only trailing blocks strictly past the cursor are provably free of
  // live spans; blocks [0, cursor_] stay (so after reset() everything
  // but the first block is eligible).
  while (blocks_.size() > cursor_ + 1 &&
         held - blocks_.back().size >= max_retained_bytes) {
    held -= blocks_.back().size;
    freed += blocks_.back().size;
    blocks_.pop_back();
  }
  trimmed_ += freed;
  return freed;
}

std::size_t PayloadArena::trim_to_watermark() {
  // 2x slack over the recent peak: enough that a steady-state epoch never
  // re-grows (freeing and re-allocating every cycle would defeat the
  // pool), small enough that a spike's capacity drains within a few
  // epochs of the decaying watermark.
  return trim(2 * watermark_ + block_bytes_ + kAlign);
}

void PayloadArena::rewind(Mark m) {
  // Fold the scratch being dropped into the epoch's peak before the live
  // count falls back to the mark's.
  peak_ = std::max(peak_, allocated_);
  cursor_ = m.block;
  offset_ = m.offset;
  allocated_ = m.allocated;
}

std::size_t PayloadArena::capacity() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

}  // namespace thinair::packet
