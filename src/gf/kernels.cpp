#include "gf/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
#define THINAIR_GF_X86_SIMD 1
#include <immintrin.h>
#endif
#endif

namespace thinair::gf {

namespace {

using detail::kTables;

// ------------------------------------------------------------- scalar
// The original byte-at-a-time log/exp loops (moved here from gf256.cpp).
// Baseline for the differential tests, the fallback on CPUs without
// AVX2, and the tail loop of the AVX2 kernel.

void scalar_axpy(std::uint8_t c, const std::uint8_t* x, std::uint8_t* y,
                 std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) y[i] ^= x[i];
    return;
  }
  const unsigned lc = kTables.log_[c];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t xv = x[i];
    if (xv != 0) y[i] ^= kTables.exp_[lc + kTables.log_[xv]];
  }
}

void scalar_mul_row(std::uint8_t c, const std::uint8_t* x, std::uint8_t* y,
                    std::size_t n) {
  if (c == 0) {
    std::memset(y, 0, n);
    return;
  }
  if (c == 1) {
    if (x != y) std::memcpy(y, x, n);
    return;
  }
  const unsigned lc = kTables.log_[c];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t xv = x[i];
    y[i] = xv == 0 ? std::uint8_t{0} : kTables.exp_[lc + kTables.log_[xv]];
  }
}

void scalar_xor_into(const std::uint8_t* x, std::uint8_t* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] ^= x[i];
}

// The reference semantics of mad_multi: literally k repeated axpy passes.
// Every other kernel must be byte-equivalent to this.
void scalar_mad_multi(const std::uint8_t* c, std::size_t k,
                      const std::uint8_t* x, std::uint8_t* const* ys,
                      std::size_t n) {
  for (std::size_t r = 0; r < k; ++r) scalar_axpy(c[r], x, ys[r], n);
}

// The reference semantics of dot_multi: k repeated axpy passes into the
// shared output. Every other kernel must be byte-equivalent to this.
void scalar_dot_multi(const std::uint8_t* c, std::size_t k,
                      const std::uint8_t* const* xs, std::uint8_t* y,
                      std::size_t n) {
  for (std::size_t r = 0; r < k; ++r) scalar_axpy(c[r], xs[r], y, n);
}

// Drops c == 0 rows from a fused block; returns the compacted row count.
// The SIMD kernels pay per-row table setup and per-vector work, so skipping
// dead rows up front is worth the pass.
std::size_t compact_rows(const std::uint8_t* c, std::size_t k,
                         std::uint8_t* const* ys, std::uint8_t* cc,
                         std::uint8_t** yr) {
  std::size_t m = 0;
  for (std::size_t r = 0; r < k; ++r) {
    if (c[r] == 0) continue;
    cc[m] = c[r];
    yr[m] = ys[r];
    ++m;
  }
  return m;
}

// Gather-direction twin of compact_rows over the (const) input pointers.
std::size_t compact_inputs(const std::uint8_t* c, std::size_t k,
                           const std::uint8_t* const* xs, std::uint8_t* cc,
                           const std::uint8_t** xr) {
  std::size_t m = 0;
  for (std::size_t r = 0; r < k; ++r) {
    if (c[r] == 0) continue;
    cc[m] = c[r];
    xr[m] = xs[r];
    ++m;
  }
  return m;
}

constexpr Kernel kScalar{"scalar", scalar_axpy, scalar_mul_row,
                         scalar_xor_into, scalar_mad_multi,
                         scalar_dot_multi};

// --------------------------------------------------------------- SIMD
// ISA-L-style split-nibble tables: for every constant c two 16-entry
// tables give c * low_nibble and c * (high_nibble << 4); the product of a
// full byte is their XOR (multiplication by c is linear over GF(2)).
// AVX2 `vpshufb` performs 2 x 16 of those lookups per instruction.

#ifdef THINAIR_GF_X86_SIMD

struct NibbleTables {
  alignas(16) std::uint8_t lo[256][16];
  alignas(16) std::uint8_t hi[256][16];
};

consteval NibbleTables make_nibble_tables() {
  NibbleTables t{};
  for (unsigned c = 0; c < 256; ++c)
    for (unsigned i = 0; i < 16; ++i) {
      t.lo[c][i] = (GF256(static_cast<std::uint8_t>(c)) *
                    GF256(static_cast<std::uint8_t>(i)))
                       .value();
      t.hi[c][i] = (GF256(static_cast<std::uint8_t>(c)) *
                    GF256(static_cast<std::uint8_t>(i << 4)))
                       .value();
    }
  return t;
}

constexpr NibbleTables kNibble = make_nibble_tables();

__attribute__((target("avx2"))) inline __m256i mul32(__m256i v, __m256i lo,
                                                     __m256i hi,
                                                     __m256i mask) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
  const __m256i h = _mm256_shuffle_epi8(
      hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
  return _mm256_xor_si256(l, h);
}

__attribute__((target("avx2"))) void avx2_axpy(std::uint8_t c,
                                               const std::uint8_t* x,
                                               std::uint8_t* y,
                                               std::size_t n) {
  if (c == 0) return;
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.hi[c])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i o =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        _mm256_xor_si256(o, mul32(v, lo, hi, mask)));
  }
  scalar_axpy(c, x + i, y + i, n - i);
}

__attribute__((target("avx2"))) void avx2_mul_row(std::uint8_t c,
                                                  const std::uint8_t* x,
                                                  std::uint8_t* y,
                                                  std::size_t n) {
  if (c == 0) {
    std::memset(y, 0, n);
    return;
  }
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.hi[c])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        mul32(v, lo, hi, mask));
  }
  scalar_mul_row(c, x + i, y + i, n - i);
}

__attribute__((target("avx2"))) void avx2_xor_into(const std::uint8_t* x,
                                                   std::uint8_t* y,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i o =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        _mm256_xor_si256(o, v));
  }
  scalar_xor_into(x + i, y + i, n - i);
}

// Fused split-nibble accumulate. The live-row count is a template
// parameter so the per-row lo/hi tables become register-resident locals
// (fully for M <= 4, with modest spilling at M == 8); the runtime wrapper
// compacts away zero rows and switches over the count. Work shared per
// input vector: the x load and the two nibble extractions. Work per row:
// two pshufb, two xor and the y load/store — the structure of ISA-L's
// gf_Nvect_mad family.

template <std::size_t M>
__attribute__((target("avx2"))) void avx2_mad_rows(const std::uint8_t* cc,
                                                   const std::uint8_t* x,
                                                   std::uint8_t* const* yr,
                                                   std::size_t n) {
  __m256i lo[M], hi[M];
  for (std::size_t r = 0; r < M; ++r) {
    lo[r] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.lo[cc[r]])));
    hi[r] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.hi[cc[r]])));
  }
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  // 64 bytes per iteration: at M == 8 the sixteen tables cannot all stay
  // register-resident, so the compiler reloads spilled ones per row — two
  // input vectors per pass amortise those reloads (and the loop overhead)
  // over twice the bytes.
  for (; i + 64 <= n; i += 64) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 32));
    const __m256i vl0 = _mm256_and_si256(v0, mask);
    const __m256i vh0 = _mm256_and_si256(_mm256_srli_epi64(v0, 4), mask);
    const __m256i vl1 = _mm256_and_si256(v1, mask);
    const __m256i vh1 = _mm256_and_si256(_mm256_srli_epi64(v1, 4), mask);
    for (std::size_t r = 0; r < M; ++r) {
      const __m256i o0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yr[r] + i));
      const __m256i p0 = _mm256_xor_si256(_mm256_shuffle_epi8(lo[r], vl0),
                                          _mm256_shuffle_epi8(hi[r], vh0));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(yr[r] + i),
                          _mm256_xor_si256(o0, p0));
      const __m256i o1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(yr[r] + i + 32));
      const __m256i p1 = _mm256_xor_si256(_mm256_shuffle_epi8(lo[r], vl1),
                                          _mm256_shuffle_epi8(hi[r], vh1));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(yr[r] + i + 32),
                          _mm256_xor_si256(o1, p1));
    }
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vl = _mm256_and_si256(v, mask);
    const __m256i vh = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
    for (std::size_t r = 0; r < M; ++r) {
      const __m256i o =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yr[r] + i));
      const __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo[r], vl),
                                         _mm256_shuffle_epi8(hi[r], vh));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(yr[r] + i),
                          _mm256_xor_si256(o, p));
    }
  }
  for (std::size_t r = 0; r < M; ++r)
    scalar_axpy(cc[r], x + i, yr[r] + i, n - i);
}

// Fused split-nibble gather, the mirror of the *_mad_rows family above
// with input/output roles swapped: the live-input count is a template
// parameter so the per-input lo/hi tables stay register-resident, the
// accumulator vector is loaded and stored once per pass, and every input
// vector costs two pshufb + two xor — the structure of ISA-L's
// gf_vect_dot_prod family.

template <std::size_t M>
__attribute__((target("avx2"))) void avx2_dot_rows(const std::uint8_t* cc,
                                                   const std::uint8_t* const* xr,
                                                   std::uint8_t* y,
                                                   std::size_t n) {
  __m256i lo[M], hi[M];
  for (std::size_t r = 0; r < M; ++r) {
    lo[r] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.lo[cc[r]])));
    hi[r] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(kNibble.hi[cc[r]])));
  }
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  // 64 bytes per iteration for the same reason as avx2_mad_rows: at
  // M == 8 the sixteen tables spill, and two accumulator streams amortise
  // the reloads over twice the bytes.
  for (; i + 64 <= n; i += 64) {
    __m256i acc0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    __m256i acc1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + 32));
    for (std::size_t r = 0; r < M; ++r) {
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xr[r] + i));
      const __m256i v1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(xr[r] + i + 32));
      acc0 = _mm256_xor_si256(acc0, mul32(v0, lo[r], hi[r], mask));
      acc1 = _mm256_xor_si256(acc1, mul32(v1, lo[r], hi[r], mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i + 32), acc1);
  }
  for (; i + 32 <= n; i += 32) {
    __m256i acc = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    for (std::size_t r = 0; r < M; ++r) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xr[r] + i));
      acc = _mm256_xor_si256(acc, mul32(v, lo[r], hi[r], mask));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), acc);
  }
  for (std::size_t r = 0; r < M; ++r)
    scalar_axpy(cc[r], xr[r] + i, y + i, n - i);
}

using MadRowsFn = void (*)(const std::uint8_t*, const std::uint8_t*,
                           std::uint8_t* const*, std::size_t);
using DotRowsFn = void (*)(const std::uint8_t*, const std::uint8_t* const*,
                           std::uint8_t*, std::size_t);

// Shared tile-compact-dispatch wrapper behind every SIMD mad_multi:
// split the batch into kMaxFusedRows blocks, drop zero rows, and jump to
// the width-specialised row kernel for the live count.
void tiled_mad_multi(const MadRowsFn* rows_fns, const std::uint8_t* c,
                     std::size_t k, const std::uint8_t* x,
                     std::uint8_t* const* ys, std::size_t n) {
  for (std::size_t r0 = 0; r0 < k; r0 += kMaxFusedRows) {
    const std::size_t kb = std::min(kMaxFusedRows, k - r0);
    std::uint8_t cc[kMaxFusedRows];
    std::uint8_t* yr[kMaxFusedRows];
    const std::size_t m = compact_rows(c + r0, kb, ys + r0, cc, yr);
    if (m != 0) rows_fns[m - 1](cc, x, yr, n);
  }
}

// The same wrapper for the gather direction.
void tiled_dot_multi(const DotRowsFn* rows_fns, const std::uint8_t* c,
                     std::size_t k, const std::uint8_t* const* xs,
                     std::uint8_t* y, std::size_t n) {
  for (std::size_t r0 = 0; r0 < k; r0 += kMaxFusedRows) {
    const std::size_t kb = std::min(kMaxFusedRows, k - r0);
    std::uint8_t cc[kMaxFusedRows];
    const std::uint8_t* xr[kMaxFusedRows];
    const std::size_t m = compact_inputs(c + r0, kb, xs + r0, cc, xr);
    if (m != 0) rows_fns[m - 1](cc, xr, y, n);
  }
}

// Below ~half a KiB the fused pshufb row kernels lose: at M > 4 their
// 2*M nibble tables spill, and the per-call spill/setup outweighs the
// shared-input savings (the paper's 100 B payloads hit this on every
// round). Repeated axpy is byte-equivalent by contract, so fall back.
constexpr std::size_t kPshufbFusedMinBytes = 512;

void avx2_mad_multi(const std::uint8_t* c, std::size_t k,
                    const std::uint8_t* x, std::uint8_t* const* ys,
                    std::size_t n) {
  if (n < kPshufbFusedMinBytes) {
    for (std::size_t r = 0; r < k; ++r) avx2_axpy(c[r], x, ys[r], n);
    return;
  }
  static constexpr MadRowsFn kRows[kMaxFusedRows] = {
      avx2_mad_rows<1>, avx2_mad_rows<2>, avx2_mad_rows<3>,
      avx2_mad_rows<4>, avx2_mad_rows<5>, avx2_mad_rows<6>,
      avx2_mad_rows<7>, avx2_mad_rows<8>};
  tiled_mad_multi(kRows, c, k, x, ys, n);
}

// The gather direction shares mad_multi's small-payload policy: below
// ~half a KiB the 2*M nibble tables spill and repeated axpy wins.
void avx2_dot_multi(const std::uint8_t* c, std::size_t k,
                    const std::uint8_t* const* xs, std::uint8_t* y,
                    std::size_t n) {
  if (n < kPshufbFusedMinBytes) {
    for (std::size_t r = 0; r < k; ++r) avx2_axpy(c[r], xs[r], y, n);
    return;
  }
  static constexpr DotRowsFn kRows[kMaxFusedRows] = {
      avx2_dot_rows<1>, avx2_dot_rows<2>, avx2_dot_rows<3>,
      avx2_dot_rows<4>, avx2_dot_rows<5>, avx2_dot_rows<6>,
      avx2_dot_rows<7>, avx2_dot_rows<8>};
  tiled_dot_multi(kRows, c, k, xs, y, n);
}

constexpr Kernel kAvx2{"avx2", avx2_axpy, avx2_mul_row, avx2_xor_into,
                       avx2_mad_multi, avx2_dot_multi};

// ------------------------------------------------------- GFNI + AVX-512
// gf2p8affineqb applies an arbitrary 8x8 GF(2) bit matrix to every byte
// lane. Multiplication by a constant c is GF(2)-linear, so one 64-bit
// matrix per coefficient replaces the 32 bytes of split-nibble tables —
// a full GF(2^8) multiply in ONE instruction per 64 input bytes, and
// with AVX-512's 32 zmm registers all kMaxFusedRows matrices of a fused
// block stay register-resident (the pshufb kernels spill at M == 8).
//
// Matrix layout (Intel SDM affine_byte): qword byte (7 - i) holds the
// row computing output bit i; its bit k must be bit i of c * alpha^k,
// with alpha reduction over OUR modulus 0x11D (gf2p8mulb is useless here:
// it hardwires the AES polynomial 0x11B, gf2p8affineqb is polynomial-
// agnostic).

consteval std::array<std::uint64_t, 256> make_gfni_matrices() {
  std::array<std::uint64_t, 256> t{};
  for (unsigned c = 0; c < 256; ++c) {
    std::uint8_t col[8];  // col[k] = c * alpha^k
    auto v = static_cast<std::uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      col[k] = v;
      v = static_cast<std::uint8_t>((v << 1) ^ ((v & 0x80) != 0 ? 0x1D : 0));
    }
    std::uint64_t m = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint8_t row = 0;
      for (int k = 0; k < 8; ++k)
        row = static_cast<std::uint8_t>(row | (((col[k] >> i) & 1) << k));
      m |= static_cast<std::uint64_t>(row) << (8 * (7 - i));
    }
    t[c] = m;
  }
  return t;
}

constexpr std::array<std::uint64_t, 256> kGfniMat = make_gfni_matrices();

#define THINAIR_GFNI_TARGET \
  __attribute__((target("gfni,avx512f,avx512bw,avx512vl")))

// All-ones mask for the r in [1, 63] tail bytes.
THINAIR_GFNI_TARGET inline __mmask64 tail_mask(std::size_t r) {
  return ~std::uint64_t{0} >> (64 - r);
}

THINAIR_GFNI_TARGET void gfni_axpy(std::uint8_t c, const std::uint8_t* x,
                                   std::uint8_t* y, std::size_t n) {
  if (c == 0) return;
  const __m512i a = _mm512_set1_epi64(static_cast<long long>(kGfniMat[c]));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i v = _mm512_loadu_si512(x + i);
    const __m512i o = _mm512_loadu_si512(y + i);
    _mm512_storeu_si512(
        y + i, _mm512_xor_si512(o, _mm512_gf2p8affine_epi64_epi8(v, a, 0)));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i v = _mm512_maskz_loadu_epi8(m, x + i);
    const __m512i o = _mm512_maskz_loadu_epi8(m, y + i);
    _mm512_mask_storeu_epi8(
        y + i, m,
        _mm512_xor_si512(o, _mm512_gf2p8affine_epi64_epi8(v, a, 0)));
  }
}

THINAIR_GFNI_TARGET void gfni_mul_row(std::uint8_t c, const std::uint8_t* x,
                                      std::uint8_t* y, std::size_t n) {
  if (c == 0) {
    std::memset(y, 0, n);
    return;
  }
  if (c == 1) {
    if (x != y) std::memmove(y, x, n);
    return;
  }
  const __m512i a = _mm512_set1_epi64(static_cast<long long>(kGfniMat[c]));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i v = _mm512_loadu_si512(x + i);
    _mm512_storeu_si512(y + i, _mm512_gf2p8affine_epi64_epi8(v, a, 0));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i v = _mm512_maskz_loadu_epi8(m, x + i);
    _mm512_mask_storeu_epi8(y + i, m,
                            _mm512_gf2p8affine_epi64_epi8(v, a, 0));
  }
}

THINAIR_GFNI_TARGET void gfni_xor_into(const std::uint8_t* x, std::uint8_t* y,
                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i v = _mm512_loadu_si512(x + i);
    const __m512i o = _mm512_loadu_si512(y + i);
    _mm512_storeu_si512(y + i, _mm512_xor_si512(o, v));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i v = _mm512_maskz_loadu_epi8(m, x + i);
    const __m512i o = _mm512_maskz_loadu_epi8(m, y + i);
    _mm512_mask_storeu_epi8(y + i, m, _mm512_xor_si512(o, v));
  }
}

template <std::size_t M>
THINAIR_GFNI_TARGET void gfni_mad_rows(const std::uint8_t* cc,
                                       const std::uint8_t* x,
                                       std::uint8_t* const* yr,
                                       std::size_t n) {
  __m512i a[M];
  for (std::size_t r = 0; r < M; ++r)
    a[r] = _mm512_set1_epi64(static_cast<long long>(kGfniMat[cc[r]]));
  std::size_t i = 0;
  // 128 bytes per iteration: two independent zmm streams per row keep
  // the load/store ports busy while the affine results retire.
  for (; i + 128 <= n; i += 128) {
    const __m512i v0 = _mm512_loadu_si512(x + i);
    const __m512i v1 = _mm512_loadu_si512(x + i + 64);
    for (std::size_t r = 0; r < M; ++r) {
      const __m512i o0 = _mm512_loadu_si512(yr[r] + i);
      const __m512i o1 = _mm512_loadu_si512(yr[r] + i + 64);
      _mm512_storeu_si512(
          yr[r] + i,
          _mm512_xor_si512(o0, _mm512_gf2p8affine_epi64_epi8(v0, a[r], 0)));
      _mm512_storeu_si512(
          yr[r] + i + 64,
          _mm512_xor_si512(o1, _mm512_gf2p8affine_epi64_epi8(v1, a[r], 0)));
    }
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i v = _mm512_loadu_si512(x + i);
    for (std::size_t r = 0; r < M; ++r) {
      const __m512i o = _mm512_loadu_si512(yr[r] + i);
      _mm512_storeu_si512(
          yr[r] + i,
          _mm512_xor_si512(o, _mm512_gf2p8affine_epi64_epi8(v, a[r], 0)));
    }
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i v = _mm512_maskz_loadu_epi8(m, x + i);
    for (std::size_t r = 0; r < M; ++r) {
      const __m512i o = _mm512_maskz_loadu_epi8(m, yr[r] + i);
      _mm512_mask_storeu_epi8(
          yr[r] + i, m,
          _mm512_xor_si512(o, _mm512_gf2p8affine_epi64_epi8(v, a[r], 0)));
    }
  }
}

void gfni_mad_multi(const std::uint8_t* c, std::size_t k,
                    const std::uint8_t* x, std::uint8_t* const* ys,
                    std::size_t n) {
  // No small-n fallback: one 64-bit matrix per row means no spills and
  // near-zero setup, so fusion wins at every size.
  static constexpr MadRowsFn kRows[kMaxFusedRows] = {
      gfni_mad_rows<1>, gfni_mad_rows<2>, gfni_mad_rows<3>,
      gfni_mad_rows<4>, gfni_mad_rows<5>, gfni_mad_rows<6>,
      gfni_mad_rows<7>, gfni_mad_rows<8>};
  tiled_mad_multi(kRows, c, k, x, ys, n);
}

// Gather mirror of gfni_mad_rows: all M affine matrices plus two
// accumulator streams stay register-resident out of the 32 zmm registers,
// so every 64 input bytes cost one load and one gf2p8affineqb.
template <std::size_t M>
THINAIR_GFNI_TARGET void gfni_dot_rows(const std::uint8_t* cc,
                                       const std::uint8_t* const* xr,
                                       std::uint8_t* y, std::size_t n) {
  __m512i a[M];
  for (std::size_t r = 0; r < M; ++r)
    a[r] = _mm512_set1_epi64(static_cast<long long>(kGfniMat[cc[r]]));
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    __m512i acc0 = _mm512_loadu_si512(y + i);
    __m512i acc1 = _mm512_loadu_si512(y + i + 64);
    for (std::size_t r = 0; r < M; ++r) {
      const __m512i v0 = _mm512_loadu_si512(xr[r] + i);
      const __m512i v1 = _mm512_loadu_si512(xr[r] + i + 64);
      acc0 = _mm512_xor_si512(acc0, _mm512_gf2p8affine_epi64_epi8(v0, a[r], 0));
      acc1 = _mm512_xor_si512(acc1, _mm512_gf2p8affine_epi64_epi8(v1, a[r], 0));
    }
    _mm512_storeu_si512(y + i, acc0);
    _mm512_storeu_si512(y + i + 64, acc1);
  }
  for (; i + 64 <= n; i += 64) {
    __m512i acc = _mm512_loadu_si512(y + i);
    for (std::size_t r = 0; r < M; ++r) {
      const __m512i v = _mm512_loadu_si512(xr[r] + i);
      acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8(v, a[r], 0));
    }
    _mm512_storeu_si512(y + i, acc);
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    __m512i acc = _mm512_maskz_loadu_epi8(m, y + i);
    for (std::size_t r = 0; r < M; ++r) {
      const __m512i v = _mm512_maskz_loadu_epi8(m, xr[r] + i);
      acc = _mm512_xor_si512(acc, _mm512_gf2p8affine_epi64_epi8(v, a[r], 0));
    }
    _mm512_mask_storeu_epi8(y + i, m, acc);
  }
}

void gfni_dot_multi(const std::uint8_t* c, std::size_t k,
                    const std::uint8_t* const* xs, std::uint8_t* y,
                    std::size_t n) {
  // As with gfni_mad_multi: no small-n fallback needed.
  static constexpr DotRowsFn kRows[kMaxFusedRows] = {
      gfni_dot_rows<1>, gfni_dot_rows<2>, gfni_dot_rows<3>,
      gfni_dot_rows<4>, gfni_dot_rows<5>, gfni_dot_rows<6>,
      gfni_dot_rows<7>, gfni_dot_rows<8>};
  tiled_dot_multi(kRows, c, k, xs, y, n);
}

#undef THINAIR_GFNI_TARGET

constexpr Kernel kGfni{"gfni", gfni_axpy, gfni_mul_row, gfni_xor_into,
                       gfni_mad_multi, gfni_dot_multi};

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
bool cpu_has_gfni_avx512() {
  return __builtin_cpu_supports("gfni") != 0 &&
         __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}

#endif  // THINAIR_GF_X86_SIMD

// ----------------------------------------------------------- dispatch

const std::vector<const Kernel*>& kernel_list() {
  static const std::vector<const Kernel*> kernels = [] {
    std::vector<const Kernel*> v{&kScalar};
#ifdef THINAIR_GF_X86_SIMD
    if (cpu_has_avx2()) v.push_back(&kAvx2);
    if (cpu_has_gfni_avx512()) v.push_back(&kGfni);
#endif
    return v;
  }();
  return kernels;
}

const Kernel* find_kernel(std::string_view name) {
  for (const Kernel* k : kernel_list())
    if (name == k->name) return k;
  return nullptr;
}

// The fastest kernel this CPU runs: the registry is ordered slowest
// first, so it is the last entry.
const Kernel* best_kernel() { return kernel_list().back(); }

// The dispatch singleton. Everything reachable from it is immutable
// after first use — the kernel vtables are constinit-style statics and
// kernel_list() is a magic static — so the only mutable state in the
// whole dispatch layer is this one pointer slot, and it is atomic.
// Relaxed ordering suffices: a kernel pointer is self-contained (no
// data is published through the store), and torn selection is
// impossible. This is the lock-free pattern thinair_lint's RNG and
// allocation rules assume when they exempt this file; the thread-safety
// contract is documented on set_active_kernel() in the header.
std::atomic<const Kernel*>& active_slot() {
  static std::atomic<const Kernel*> slot{best_kernel()};
  return slot;
}

}  // namespace

const Kernel& scalar_kernel() { return kScalar; }

std::span<const Kernel* const> all_kernels() { return kernel_list(); }

const Kernel& active_kernel() {
  return *active_slot().load(std::memory_order_relaxed);
}

bool set_active_kernel(std::string_view name) {
  const Kernel* k = name == "auto" ? best_kernel() : find_kernel(name);
  if (k == nullptr) return false;
  active_slot().store(k, std::memory_order_relaxed);
  return true;
}

}  // namespace thinair::gf
