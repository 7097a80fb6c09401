// The retargetable GF(2^8) kernel layer (gf/kernels.h) and the payload
// arena (packet/arena.h): every kernel must produce byte-identical output
// for every coefficient, length and alignment — that equivalence is what
// lets the runtime promise kernel-independent NDJSON — and the arena must
// hand out stable, aligned, reusable spans.
#include "gf/kernels.h"

#include <gtest/gtest.h>

#include <tuple>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/rng.h"
#include "gf/encode.h"
#include "gf/gather.h"
#include "packet/arena.h"
#include "packet/combination.h"
#include "runtime/engine.h"
#include "runtime/scenarios.h"

namespace thinair {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  channel::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

// Restores the dispatched kernel after a test that overrides it.
struct KernelGuard {
  ~KernelGuard() { std::ignore = gf::set_active_kernel("auto"); }
};

TEST(Kernels, RegistryIsScalarThenCpuSupportedSimd) {
  std::vector<std::string> want{"scalar"};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) want.emplace_back("avx2");
  if (__builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl"))
    want.emplace_back("gfni");
#endif
  std::vector<std::string> got;
  for (const gf::Kernel* k : gf::all_kernels()) got.emplace_back(k->name);
  EXPECT_EQ(got, want);

  KernelGuard guard;
  EXPECT_FALSE(gf::set_active_kernel("no-such-kernel"));
  EXPECT_FALSE(gf::set_active_kernel("portable"));
  EXPECT_FALSE(gf::set_active_kernel("ssse3"));
  EXPECT_TRUE(gf::set_active_kernel("scalar"));
  EXPECT_STREQ(gf::active_kernel().name, "scalar");
  EXPECT_TRUE(gf::set_active_kernel("auto"));
  EXPECT_EQ(&gf::active_kernel(), gf::all_kernels().back());
}

// The satellite differential test: all 256 coefficients x a size ladder
// spanning 0..8 KiB x unaligned offsets, each kernel against the scalar
// reference, for all three vtable entries.
TEST(Kernels, DifferentialEquivalenceAllCoefficients) {
  const gf::Kernel& ref = gf::scalar_kernel();
  constexpr std::size_t kSizes[] = {0,  1,  2,   3,   7,   8,    9,   15,
                                    16, 17, 31,  32,  33,  63,   64,  65,
                                    100, 255, 256, 1000, 4096, 8192};
  constexpr std::size_t kOffsets[] = {0, 1, 3};
  constexpr std::size_t kMax = 8192 + 8;

  const std::vector<std::uint8_t> x_base = random_bytes(kMax, 11);
  const std::vector<std::uint8_t> y_base = random_bytes(kMax, 22);

  for (const gf::Kernel* k : gf::all_kernels()) {
    if (k == &ref) continue;
    SCOPED_TRACE(k->name);
    for (unsigned c = 0; c < 256; ++c) {
      const auto cc = static_cast<std::uint8_t>(c);
      for (const std::size_t n : kSizes) {
        // Rotate through offsets with c so the full cross product is
        // covered over the coefficient loop without tripling the runtime.
        const std::size_t off = kOffsets[c % std::size(kOffsets)];
        const std::uint8_t* x = x_base.data() + off;

        std::vector<std::uint8_t> want(y_base.begin(), y_base.end());
        std::vector<std::uint8_t> got(y_base.begin(), y_base.end());

        ref.axpy(cc, x, want.data() + off, n);
        k->axpy(cc, x, got.data() + off, n);
        ASSERT_EQ(want, got) << "axpy c=" << c << " n=" << n;

        ref.mul_row(cc, x, want.data() + off, n);
        k->mul_row(cc, x, got.data() + off, n);
        ASSERT_EQ(want, got) << "mul_row c=" << c << " n=" << n;

        // In-place mul_row (the gf::scale path).
        ref.mul_row(cc, want.data() + off, want.data() + off, n);
        k->mul_row(cc, got.data() + off, got.data() + off, n);
        ASSERT_EQ(want, got) << "mul_row in-place c=" << c << " n=" << n;

        ref.xor_into(x, want.data() + off, n);
        k->xor_into(x, got.data() + off, n);
        ASSERT_EQ(want, got) << "xor_into n=" << n;
      }
    }
  }
}

// The fused multi-row satellite test: for every kernel, mad_multi over
// k in 1..kMaxFusedRows rows must be byte-identical to k repeated axpy
// calls, across a 0..8 KiB size ladder, unaligned offsets, and
// coefficient patterns that include 0 (skipped rows) and 1 (xor rows).
TEST(Kernels, MadMultiEqualsRepeatedAxpy) {
  const gf::Kernel& ref = gf::scalar_kernel();
  constexpr std::size_t kSizes[] = {0,  1,   7,   8,    15,  16,  17,
                                    31, 32,  33,  63,   64,  65,  100,
                                    255, 256, 1000, 4096, 8192};
  constexpr std::size_t kOffsets[] = {0, 1, 3};
  constexpr std::size_t kMax = 8192 + 8;
  const std::vector<std::uint8_t> x_base = random_bytes(kMax, 55);

  channel::Rng coeff_rng(66);
  for (const gf::Kernel* kernel : gf::all_kernels()) {
    SCOPED_TRACE(kernel->name);
    for (std::size_t k = 1; k <= gf::kMaxFusedRows; ++k) {
      for (const std::size_t n : kSizes) {
        for (const std::size_t off : kOffsets) {
          std::uint8_t c[gf::kMaxFusedRows];
          for (std::size_t r = 0; r < k; ++r) {
            // Exercise the special values alongside random coefficients.
            const std::uint8_t roll = coeff_rng.next_byte();
            c[r] = roll < 32 ? std::uint8_t{0}
                   : roll < 64 ? std::uint8_t{1}
                               : coeff_rng.next_byte();
          }
          std::vector<std::vector<std::uint8_t>> want, got;
          std::uint8_t* ys[gf::kMaxFusedRows];
          for (std::size_t r = 0; r < k; ++r) {
            want.push_back(random_bytes(kMax, 100 + r));
            got.push_back(want.back());
          }
          const std::uint8_t* x = x_base.data() + off;
          for (std::size_t r = 0; r < k; ++r)
            ref.axpy(c[r], x, want[r].data() + off, n);
          for (std::size_t r = 0; r < k; ++r) ys[r] = got[r].data() + off;
          kernel->mad_multi(c, k, x, ys, n);
          ASSERT_EQ(want, got) << "k=" << k << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

// The gather-direction differential satellite: for every kernel,
// dot_multi over k in 1..kMaxFusedRows inputs must be byte-identical to
// k repeated axpy calls into the shared output, across a 0..8 KiB size
// ladder, unaligned offsets, and coefficient patterns that include 0
// (skipped inputs) and 1 (xor inputs).
TEST(Kernels, DotMultiEqualsRepeatedAxpy) {
  const gf::Kernel& ref = gf::scalar_kernel();
  constexpr std::size_t kSizes[] = {0,  1,   7,   8,    15,  16,  17,
                                    31, 32,  33,  63,   64,  65,  100,
                                    255, 256, 1000, 4096, 8192};
  constexpr std::size_t kOffsets[] = {0, 1, 3};
  constexpr std::size_t kMax = 8192 + 8;

  channel::Rng coeff_rng(77);
  for (const gf::Kernel* kernel : gf::all_kernels()) {
    SCOPED_TRACE(kernel->name);
    for (std::size_t k = 1; k <= gf::kMaxFusedRows; ++k) {
      for (const std::size_t n : kSizes) {
        for (const std::size_t off : kOffsets) {
          std::uint8_t c[gf::kMaxFusedRows];
          for (std::size_t r = 0; r < k; ++r) {
            // Exercise the special values alongside random coefficients.
            const std::uint8_t roll = coeff_rng.next_byte();
            c[r] = roll < 32 ? std::uint8_t{0}
                   : roll < 64 ? std::uint8_t{1}
                               : coeff_rng.next_byte();
          }
          std::vector<std::vector<std::uint8_t>> ins;
          const std::uint8_t* xs[gf::kMaxFusedRows];
          for (std::size_t r = 0; r < k; ++r) {
            ins.push_back(random_bytes(kMax, 200 + r));
            xs[r] = ins.back().data() + off;
          }
          std::vector<std::uint8_t> want = random_bytes(kMax, 99);
          std::vector<std::uint8_t> got = want;
          for (std::size_t r = 0; r < k; ++r)
            ref.axpy(c[r], xs[r], want.data() + off, n);
          kernel->dot_multi(c, k, xs, got.data() + off, n);
          ASSERT_EQ(want, got) << "k=" << k << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

// An all-zero coefficient block must leave the output untouched and must
// never dereference the inputs (empty-span convention of reconstruct_y).
TEST(Kernels, DotMultiAllZeroCoefficientsLeaveOutputUntouched) {
  const std::size_t n = 1024;
  std::uint8_t c[gf::kMaxFusedRows] = {};  // all zero
  const std::uint8_t* xs[gf::kMaxFusedRows] = {};  // null: must not be read
  for (const gf::Kernel* kernel : gf::all_kernels()) {
    SCOPED_TRACE(kernel->name);
    const std::vector<std::uint8_t> before = random_bytes(n, 5);
    std::vector<std::uint8_t> y = before;
    kernel->dot_multi(c, gf::kMaxFusedRows, xs, y.data(), n);
    EXPECT_EQ(y, before);
  }
}

// dot_multi must also tile batches larger than kMaxFusedRows on its own.
TEST(Kernels, DotMultiTilesLargeBatches) {
  const std::size_t k = 2 * gf::kMaxFusedRows + 3;
  const std::size_t n = 777;
  std::vector<std::uint8_t> c;
  for (std::size_t r = 0; r < k; ++r)
    c.push_back(static_cast<std::uint8_t>(r * 13 % 256));
  std::vector<std::vector<std::uint8_t>> ins;
  std::vector<const std::uint8_t*> xs(k);
  for (std::size_t r = 0; r < k; ++r) {
    ins.push_back(random_bytes(n, 400 + r));
    xs[r] = ins.back().data();
  }
  for (const gf::Kernel* kernel : gf::all_kernels()) {
    SCOPED_TRACE(kernel->name);
    std::vector<std::uint8_t> want = random_bytes(n, 17);
    std::vector<std::uint8_t> got = want;
    for (std::size_t r = 0; r < k; ++r)
      gf::scalar_kernel().axpy(c[r], xs[r], want.data(), n);
    kernel->dot_multi(c.data(), k, xs.data(), got.data(), n);
    EXPECT_EQ(want, got);
  }
}

// mad_multi must also tile batches larger than kMaxFusedRows on its own.
TEST(Kernels, MadMultiTilesLargeBatches) {
  const std::size_t k = 2 * gf::kMaxFusedRows + 3;
  const std::size_t n = 777;
  const std::vector<std::uint8_t> x = random_bytes(n, 7);
  std::vector<std::uint8_t> c;
  for (std::size_t r = 0; r < k; ++r)
    c.push_back(static_cast<std::uint8_t>(r * 13 % 256));
  for (const gf::Kernel* kernel : gf::all_kernels()) {
    SCOPED_TRACE(kernel->name);
    std::vector<std::vector<std::uint8_t>> want, got;
    std::vector<std::uint8_t*> ys(k);
    for (std::size_t r = 0; r < k; ++r) {
      want.push_back(random_bytes(n, 300 + r));
      got.push_back(want.back());
      gf::scalar_kernel().axpy(c[r], x.data(), want[r].data(), n);
    }
    for (std::size_t r = 0; r < k; ++r) ys[r] = got[r].data();
    kernel->mad_multi(c.data(), k, x.data(), ys.data(), n);
    EXPECT_EQ(want, got);
  }
}

// gf::encode vs the naive row-by-row axpy evaluation, on a matrix with
// zero rows, zero columns and dense blocks mixed.
TEST(Encode, MatchesRowByRowAxpy) {
  packet::PayloadArena arena;
  channel::Rng rng(88);
  const std::size_t rows = 21, cols = 13, payload = 300;
  gf::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      if (rng.bernoulli(0.7)) m.set(i, j, gf::GF256(rng.next_byte()));
  std::vector<std::vector<std::uint8_t>> in_data;
  std::vector<packet::ConstByteSpan> ins;
  for (std::size_t j = 0; j < cols; ++j) {
    in_data.push_back(random_bytes(payload, 500 + j));
    ins.push_back(in_data.back());
  }

  std::vector<std::vector<std::uint8_t>> want(
      rows, std::vector<std::uint8_t>(payload, 0));
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      gf::axpy(m.at(i, j), ins[j].data(), want[i].data(), payload);

  const std::vector<packet::ConstByteSpan> got =
      gf::encode(m, ins, payload, arena);
  ASSERT_EQ(got.size(), rows);
  for (std::size_t i = 0; i < rows; ++i)
    EXPECT_TRUE(std::equal(want[i].begin(), want[i].end(), got[i].begin(),
                           got[i].end()))
        << "row " << i;

  // Shape and size mismatches are rejected.
  std::vector<packet::ConstByteSpan> short_ins(ins.begin(), ins.end() - 1);
  EXPECT_THROW((void)gf::encode(m, short_ins, payload, arena),
               std::invalid_argument);
  std::vector<packet::ConstByteSpan> bad = ins;
  bad[0] = bad[0].subspan(1);
  EXPECT_THROW((void)gf::encode(m, bad, payload, arena),
               std::invalid_argument);
}

// gf::gather vs the naive coefficient-by-coefficient axpy evaluation,
// under every registered kernel (the wrapper dispatches through the
// active kernel's dot_multi), with zero coefficients over empty spans.
TEST(Gather, MatchesRepeatedAxpyUnderEveryKernel) {
  packet::PayloadArena arena;
  channel::Rng rng(123);
  const std::size_t cols = 37, payload = 600;  // > one kMaxFusedRows tile
  std::vector<std::uint8_t> coeffs(cols);
  for (std::size_t j = 0; j < cols; ++j)
    coeffs[j] = rng.bernoulli(0.25) ? std::uint8_t{0} : rng.next_byte();

  std::vector<std::vector<std::uint8_t>> in_data(cols);
  std::vector<std::span<const std::uint8_t>> ins(cols);
  for (std::size_t j = 0; j < cols; ++j) {
    if (coeffs[j] == 0) continue;  // dead inputs stay empty spans
    in_data[j] = random_bytes(payload, 700 + j);
    ins[j] = in_data[j];
  }

  std::vector<std::uint8_t> want(payload, 0);
  for (std::size_t j = 0; j < cols; ++j)
    if (coeffs[j] != 0)
      gf::scalar_kernel().axpy(coeffs[j], ins[j].data(), want.data(),
                               payload);

  KernelGuard guard;
  for (const gf::Kernel* k : gf::all_kernels()) {
    SCOPED_TRACE(k->name);
    ASSERT_TRUE(gf::set_active_kernel(k->name));
    // Accumulating form seeds the output (the repair-path shape)...
    std::vector<std::uint8_t> seeded = random_bytes(payload, 3);
    std::vector<std::uint8_t> got = seeded;
    gf::gather(coeffs, ins, got);
    for (std::size_t i = 0; i < payload; ++i)
      ASSERT_EQ(got[i], want[i] ^ seeded[i]) << i;
    // ... and the arena form allocates a zeroed output itself.
    const std::span<const std::uint8_t> fresh =
        gf::gather(coeffs, ins, payload, arena);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), fresh.begin(),
                           fresh.end()));
  }

  // Shape and size mismatches are rejected.
  std::vector<std::uint8_t> out(payload, 0);
  std::vector<std::span<const std::uint8_t>> short_ins(ins.begin(),
                                                       ins.end() - 1);
  EXPECT_THROW(gf::gather(coeffs, short_ins, out), std::invalid_argument);
  std::vector<std::span<const std::uint8_t>> bad = ins;
  for (std::size_t j = 0; j < cols; ++j)
    if (coeffs[j] != 0) {
      bad[j] = bad[j].subspan(1);
      break;
    }
  EXPECT_THROW(gf::gather(coeffs, bad, out), std::invalid_argument);
  EXPECT_THROW((void)gf::gather(coeffs, ins, 0, arena),
               std::invalid_argument);
}

TEST(Kernels, AxpyMatchesFieldDefinition) {
  // Spot-check the kernels against scalar field arithmetic directly.
  const std::vector<std::uint8_t> x = random_bytes(257, 33);
  for (const gf::Kernel* k : gf::all_kernels()) {
    SCOPED_TRACE(k->name);
    std::vector<std::uint8_t> y = random_bytes(257, 44);
    const std::vector<std::uint8_t> y0 = y;
    const gf::GF256 c{0x8E};
    k->axpy(c.value(), x.data(), y.data(), y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
      const gf::GF256 want = gf::GF256(y0[i]) + c * gf::GF256(x[i]);
      ASSERT_EQ(y[i], want.value()) << i;
    }
  }
}

TEST(PayloadArena, SpansAreStableAlignedAndZeroed) {
  packet::PayloadArena arena(/*block_bytes=*/64);  // force block growth
  std::vector<packet::ByteSpan> spans;
  for (std::size_t i = 0; i < 100; ++i) {
    packet::ByteSpan s = arena.alloc(24);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % 16, 0u);
    for (std::uint8_t b : s) EXPECT_EQ(b, 0);
    std::memset(s.data(), static_cast<int>(i + 1), s.size());
    spans.push_back(s);
  }
  // Growth must not have moved earlier spans.
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (std::uint8_t b : spans[i]) ASSERT_EQ(b, i + 1);
  EXPECT_EQ(arena.bytes_allocated(), 100u * 24u);
}

// Every span the arena hands out starts on a 64-byte boundary — the
// stride the GF kernels' rows are laid out on — whatever the block size,
// the request size, the allocation call, and after reset() and rewind().
TEST(PayloadArena, EveryAllocationIs64ByteAligned) {
  const auto aligned = [](packet::ConstByteSpan s) {
    return reinterpret_cast<std::uintptr_t>(s.data()) % 64 == 0;
  };
  const std::uint8_t src[77] = {1, 2, 3};
  for (const std::size_t block : {64u, 100u, 1000u, 1u << 16}) {
    packet::PayloadArena arena(block);
    for (int epoch = 0; epoch < 2; ++epoch) {
      const packet::PayloadArena::Mark mark = arena.mark();
      for (std::size_t n = 1; n < 300; n += 7) {
        EXPECT_TRUE(aligned(arena.alloc(n))) << block << " " << n;
        EXPECT_TRUE(aligned(arena.alloc_uninit(n))) << block << " " << n;
        EXPECT_TRUE(aligned(arena.copy(src))) << block;
        for (const packet::ByteSpan row : arena.alloc_rows(3, n))
          EXPECT_TRUE(aligned(row)) << block << " " << n;
      }
      arena.rewind(mark);
      EXPECT_TRUE(aligned(arena.alloc(5))) << block;
      arena.reset();
    }
  }
}

TEST(PayloadArena, ResetReusesBlocks) {
  packet::PayloadArena arena(1 << 12);
  for (std::size_t i = 0; i < 64; ++i) (void)arena.alloc(100);
  const std::size_t cap = arena.capacity();
  EXPECT_GT(cap, 0u);
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  for (std::size_t round = 0; round < 4; ++round) {
    arena.reset();
    for (std::size_t i = 0; i < 64; ++i) (void)arena.alloc(100);
    EXPECT_EQ(arena.capacity(), cap);  // steady state: no new blocks
  }
}

TEST(PayloadArena, OddSizedBlocksAndTailAllocsStayInBounds) {
  // Regression: an alignment bump near a block tail used to underflow the
  // remaining-space computation and hand out an out-of-bounds span.
  packet::PayloadArena arena(100);  // block size not a multiple of 16
  std::vector<std::pair<const std::uint8_t*, std::size_t>> got;
  const auto pound = [&] {
    for (std::size_t i = 0; i < 200; ++i) {
      const packet::ByteSpan s = arena.alloc(1 + (i % 29));
      std::memset(s.data(), 0xAB, s.size());  // ASan guards the bounds
      got.emplace_back(s.data(), s.size());
    }
  };
  pound();
  // Oversize block (n % 16 != 0), then reuse everything after reset.
  (void)arena.alloc(1003);
  arena.reset();
  got.clear();
  pound();
  // No two live spans may overlap.
  std::sort(got.begin(), got.end());
  for (std::size_t i = 1; i < got.size(); ++i)
    ASSERT_LE(reinterpret_cast<std::uintptr_t>(got[i - 1].first) +
                  got[i - 1].second,
              reinterpret_cast<std::uintptr_t>(got[i].first));
}

TEST(PayloadArena, AllocRowsHandsOutDistinctZeroedSpans) {
  packet::PayloadArena arena;
  const std::vector<packet::ByteSpan> rows = arena.alloc_rows(9, 100);
  ASSERT_EQ(rows.size(), 9u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].size(), 100u);
    for (std::uint8_t b : rows[i]) ASSERT_EQ(b, 0);
    std::memset(rows[i].data(), static_cast<int>(i + 1), rows[i].size());
  }
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::uint8_t b : rows[i]) ASSERT_EQ(b, i + 1);  // no overlap
  EXPECT_TRUE(arena.alloc_rows(0, 8).empty());
}

TEST(PayloadArena, MarkRewindReclaims) {
  packet::PayloadArena arena(1 << 12);
  (void)arena.alloc(100);
  const packet::PayloadArena::Mark m = arena.mark();
  const packet::ByteSpan a = arena.alloc(100);
  const std::uint8_t* where = a.data();
  arena.rewind(m);
  const packet::ByteSpan b = arena.alloc(100);
  EXPECT_EQ(b.data(), where);  // storage after the mark was reclaimed
  const packet::ByteSpan big = arena.alloc(1 << 14);  // oversize block path
  EXPECT_EQ(big.size(), std::size_t{1} << 14);
  EXPECT_EQ(arena.copy(packet::ConstByteSpan{}).size(), 0u);
  EXPECT_EQ(arena.alloc(0).size(), 0u);
}

// Rewound per-receiver scratch must count toward the watermark as its
// peak, not as the sum over every mark/rewind cycle of the epoch.
TEST(PayloadArena, WatermarkIsPeakNotSumOfRewoundScratch) {
  constexpr std::size_t kBase = 1000;
  constexpr std::size_t kScratch = 300;
  packet::PayloadArena arena(1 << 12);
  (void)arena.alloc(kBase);
  for (int r = 0; r < 8; ++r) {
    const packet::PayloadArena::Mark m = arena.mark();
    (void)arena.alloc(kScratch);
    EXPECT_EQ(arena.bytes_allocated(), kBase + kScratch);
    arena.rewind(m);
    EXPECT_EQ(arena.bytes_allocated(), kBase);
  }
  arena.reset();
  EXPECT_EQ(arena.high_watermark(), kBase + kScratch);
}

TEST(Combination, ArenaApplyMatchesScalarReference) {
  packet::PayloadArena arena;
  const std::vector<packet::Payload> inputs = {
      random_bytes(32, 1), random_bytes(32, 2), random_bytes(32, 3)};
  std::vector<packet::ConstByteSpan> views(inputs.begin(), inputs.end());

  packet::Combination c;
  c.add(0, gf::GF256{3});
  c.add(2, gf::GF256{0x7F});

  packet::Payload want(32);
  for (std::size_t b = 0; b < want.size(); ++b)
    want[b] = (gf::GF256{3} * gf::GF256{inputs[0][b]} +
               gf::GF256{0x7F} * gf::GF256{inputs[2][b]})
                  .value();
  const packet::ConstByteSpan got =
      c.apply(std::span<const packet::ConstByteSpan>(views), 32, arena);
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()));

  // The zero-length fix: empty payloads are skipped without touching
  // in.data(), including inputs that are themselves empty views.
  EXPECT_TRUE(c.apply(std::span<const packet::ConstByteSpan>(
                          std::vector<packet::ConstByteSpan>(3)),
                      0, arena)
                  .empty());
}

// End-to-end byte-identity: a full sweep through medium, sessions, pool,
// phases and sink must emit identical NDJSON under every kernel. This is
// the in-process version of the CI cross-kernel cmp.
TEST(Kernels, SweepNdjsonIsKernelInvariant) {
  runtime::register_builtin_scenarios();
  const runtime::Scenario* scenario =
      runtime::ScenarioRegistry::instance().find(runtime::kFig1Scenario);
  ASSERT_NE(scenario, nullptr);

  KernelGuard guard;
  std::string reference;
  for (const gf::Kernel* k : gf::all_kernels()) {
    SCOPED_TRACE(k->name);
    ASSERT_TRUE(gf::set_active_kernel(k->name));
    std::ostringstream ndjson;
    runtime::ResultSink sink(scenario->name, &ndjson);
    runtime::RunOptions options;
    options.threads = 2;
    options.master_seed = 7;
    options.limit = 4;
    runtime::run_scenario(*scenario, options, sink);
    if (reference.empty()) {
      reference = ndjson.str();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(ndjson.str(), reference);
    }
  }
}

}  // namespace
}  // namespace thinair
