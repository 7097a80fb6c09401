#pragma once
// Contiguous per-round payload storage.
//
// A protocol round touches hundreds of equally-sized payloads — N
// x-packets, M y-packets, z/s-packets, and every receiver's
// reconstruction scratch. Allocating each as its own std::vector puts a
// malloc/free pair and a cache-cold header on the hottest loops in the
// codebase. A PayloadArena instead hands out spans carved from a small
// number of large blocks: allocation is a bump of a cursor, deallocation
// is a single reset() at the next round boundary, and payloads that are
// combined together sit contiguously in memory for the GF kernels
// (gf/kernels.h) to stream over. Every span starts on a 64-byte boundary
// (a cache line and an AVX-512 vector), so consecutive payloads and
// gf::Matrix rows never share a line.
//
// Lifetime rules:
//   - spans stay valid until reset() / rewind() past them (blocks are
//     never reallocated, so growth does not invalidate earlier spans);
//   - reset() keeps the blocks, so a reused arena stops allocating once
//     it has seen its high-water mark — the runtime engine keeps one
//     arena per worker thread for exactly this reason;
//   - the arena is single-threaded; give each worker its own.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace thinair::packet {

using ByteSpan = std::span<std::uint8_t>;
using ConstByteSpan = std::span<const std::uint8_t>;

class PayloadArena {
 public:
  /// `block_bytes` is the granularity of backing allocations; requests
  /// larger than it get a dedicated block.
  explicit PayloadArena(std::size_t block_bytes = std::size_t{1} << 16);

  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  PayloadArena(PayloadArena&&) noexcept = default;
  PayloadArena& operator=(PayloadArena&&) noexcept = default;

  /// `n` zero-initialised bytes, 64-byte aligned. n == 0 returns an empty
  /// span (never a null-deref hazard: empty spans are the arena's "no
  /// payload" representation).
  ByteSpan alloc(std::size_t n);

  /// Like alloc(), but uninitialised — for spans the caller fully writes.
  ByteSpan alloc_uninit(std::size_t n);

  /// `count` zeroed spans of `n` bytes each — the "one span per output
  /// row" allocation of the fused encode paths (gf::encode and friends).
  [[nodiscard]] std::vector<ByteSpan> alloc_rows(std::size_t count,
                                                 std::size_t n);

  /// Allocate and copy `src` into the arena.
  ByteSpan copy(ConstByteSpan src);

  /// Drop every allocation but keep the blocks for reuse. Also folds the
  /// ending epoch's peak into the decaying high-watermark that drives
  /// trim_to_watermark().
  void reset();

  /// Release trailing blocks until at most `max_retained_bytes` of backing
  /// storage remain. Blocks at or before the current cursor are always
  /// kept (spans carved from them may still be live), so the full effect
  /// needs a reset() first. Returns the bytes released.
  std::size_t trim(std::size_t max_retained_bytes);

  /// The trim policy for pooled reuse: keep roughly twice the recent
  /// per-epoch peak (the decaying high-watermark) so steady-state reuse
  /// never reallocates, while one pathological epoch stops pinning its
  /// peak for the process lifetime. Returns the bytes released.
  std::size_t trim_to_watermark();

  /// A position in the allocation stream; rewind(mark()) frees everything
  /// allocated after the mark (used to bound per-receiver scratch inside
  /// a round).
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
    std::size_t allocated = 0;
  };
  [[nodiscard]] Mark mark() const { return {cursor_, offset_, allocated_}; }
  void rewind(Mark m);

  /// Live bytes since the last reset (excluding alignment padding);
  /// rewind() lowers it back to the mark's count.
  [[nodiscard]] std::size_t bytes_allocated() const { return allocated_; }
  /// Total backing storage held.
  [[nodiscard]] std::size_t capacity() const;
  /// Decaying per-epoch peak of bytes_allocated() (the peak, not the sum
  /// of rewound scratch): bumped to the epoch's
  /// peak at every reset(), decaying by a quarter when epochs shrink —
  /// so it tracks the recent steady state, not the all-time spike.
  [[nodiscard]] std::size_t high_watermark() const { return watermark_; }
  /// Cumulative backing bytes released by trim()/trim_to_watermark().
  [[nodiscard]] std::uint64_t trimmed_bytes() const { return trimmed_; }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  std::uint8_t* grow(std::size_t n);  // ensure space, return cursor pointer

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;  // index of the block being bumped
  std::size_t offset_ = 0;  // bump position within blocks_[cursor_]
  std::size_t allocated_ = 0;
  std::size_t peak_ = 0;        // this epoch's peak of allocated_ so far
  std::size_t watermark_ = 0;   // decaying per-epoch peak (see reset())
  std::uint64_t trimmed_ = 0;   // cumulative bytes released by trims
};

}  // namespace thinair::packet
