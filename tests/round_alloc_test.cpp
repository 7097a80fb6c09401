// Allocation calls on the per-x-packet path of a simulated round.
//
// session_pool_test holds warm churn to zero *net* allocation; this suite
// counts allocation *calls*. The medium's role queries, a SimMedium
// transmit and a reliable broadcast must make none, and open_round's
// count must not depend on N: whatever a round allocates is per round or
// per receiver, never per x-packet. The same holds one layer up: the
// phase-2 repair's count does not depend on how many y-packets it
// repairs, nor the receiver step's on how many y-packets it decodes
// around, nor Eve's view's on how many x-packets she observed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "analysis/eve_view.h"
#include "channel/erasure.h"
#include "channel/rng.h"
#include "channel/testbed_channel.h"
#include "core/phase2.h"
#include "core/protocol.h"
#include "core/round.h"
#include "net/medium.h"
#include "net/reliable.h"
#include "packet/arena.h"

// The sanitizers interpose the global allocator, so the counts are only
// meaningful in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define THINAIR_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define THINAIR_ALLOC_COUNTING 0
#else
#define THINAIR_ALLOC_COUNTING 1
#endif
#else
#define THINAIR_ALLOC_COUNTING 1
#endif

// Calls to the global operator new since process start. At global scope
// so the replacement operator new at the bottom of the file can see it.
std::atomic<std::int64_t> g_alloc_calls{0};

namespace thinair {
namespace {

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

/// Allocation calls made while running f.
template <typename F>
std::int64_t allocs_during(F&& f) {
  const std::int64_t before = g_alloc_calls.load(std::memory_order_relaxed);
  f();
  return g_alloc_calls.load(std::memory_order_relaxed) - before;
}

// Unused when the sanitizers disable the counting tests below.
[[maybe_unused]] packet::Packet data_packet(std::size_t bytes) {
  return packet::Packet{.kind = packet::Kind::kData,
                        .source = T(0),
                        .round = packet::RoundId{0},
                        .seq = packet::PacketSeq{0},
                        .payload = packet::Payload(bytes, 0xAB)};
}

/// Three terminals and two eavesdropper antennas, interleaved.
[[maybe_unused]] void attach_roster(net::Medium& medium) {
  medium.attach(T(0), net::Role::kTerminal);
  medium.attach(T(1), net::Role::kTerminal);
  medium.attach(T(5), net::Role::kEavesdropper);
  medium.attach(T(2), net::Role::kTerminal);
  medium.attach(T(6), net::Role::kEavesdropper);
}

TEST(RoundAlloc, MediumQueriesTransmitAndReliableBroadcastAllocateNothing) {
#if THINAIR_ALLOC_COUNTING
  channel::IidErasure iid(0.4);
  channel::TestbedChannel testbed;
  for (std::uint16_t id : {0, 1, 2, 5, 6})
    testbed.place_in_cell(T(id), channel::CellIndex{id % 9u});
  const channel::ErasureModel* models[] = {&iid, &testbed};

  for (const channel::ErasureModel* model : models) {
    net::SimMedium medium(*model, channel::Rng(11));
    attach_roster(medium);
    const packet::Packet pkt = data_packet(100);

    std::size_t seen = 0;
    EXPECT_EQ(allocs_during([&] {
                seen += medium.terminals().size();
                seen += medium.eavesdroppers().size();
                seen += medium.is_attached(T(2)) ? 1 : 0;
                seen += medium.is_attached(T(3)) ? 1 : 0;
              }),
              0);
    EXPECT_EQ(seen, 6u);

    EXPECT_EQ(allocs_during([&] {
                for (int i = 0; i < 200; ++i)
                  (void)medium.transmit(T(0), pkt, net::TrafficClass::kData);
              }),
              0);

    EXPECT_EQ(allocs_during([&] {
                for (std::uint16_t src = 0; src < 3; ++src)
                  (void)net::reliable_broadcast(medium, T(src), pkt,
                                                net::TrafficClass::kControl);
              }),
              0);
  }
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

TEST(RoundAlloc, OpenRoundAllocationsDoNotGrowWithN) {
#if THINAIR_ALLOC_COUNTING
  channel::IidErasure channel(0.3);
  net::SimMedium medium(channel, channel::Rng(12));
  attach_roster(medium);
  packet::PayloadArena arena;

  const auto round_allocs = [&](std::size_t n) {
    arena.reset();
    return allocs_during([&] {
      const core::RoundContext ctx = core::open_round(
          medium, T(0), packet::RoundId{0}, n, packet::kPaperPayloadBytes,
          arena);
      EXPECT_EQ(ctx.x_payloads.size(), n);
    });
  };

  // Warm the arena to the larger round's high-water mark first: its
  // blocks are kept across reset(), as a worker's arena is across cases.
  (void)round_allocs(180);
  const std::int64_t at_90 = round_allocs(90);
  const std::int64_t at_180 = round_allocs(180);
  EXPECT_EQ(at_90, at_180);
  EXPECT_GT(at_90, 0);  // the round context itself is still allocated
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

TEST(RoundAlloc, RecoverAllYAllocationsDoNotGrowWithUnknowns) {
#if THINAIR_ALLOC_COUNTING
  const std::size_t m = 100, l = 20, payload = packet::kPaperPayloadBytes;
  const core::Phase2Plan plan = core::phase2_code(m, l);
  packet::PayloadArena arena;
  channel::Rng rng(13);
  std::vector<packet::ConstByteSpan> y(m);
  for (auto& p : y) {
    const packet::ByteSpan body = arena.alloc_uninit(payload);
    rng.fill(body);
    p = body;
  }
  const std::vector<packet::ConstByteSpan> z =
      core::make_z_payloads(plan, y, payload, arena);

  const auto repair_allocs = [&](std::size_t d) {
    std::vector<packet::ConstByteSpan> own = y;
    for (std::size_t j = 0; j < d; ++j) own[(j * 37) % m] = {};
    const packet::PayloadArena::Mark mark = arena.mark();
    const std::int64_t calls = allocs_during([&] {
      const auto full = core::recover_all_y(plan, own, z, payload, arena);
      EXPECT_TRUE(std::equal(full[0].begin(), full[0].end(), y[0].begin(),
                             y[0].end()));
    });
    arena.rewind(mark);
    return calls;
  };

  (void)repair_allocs(64);  // warm the arena to the larger repair
  EXPECT_EQ(repair_allocs(8), repair_allocs(64));
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

TEST(RoundAlloc, ReceiverRoundAllocationsDoNotGrowWithUnknowns) {
#if THINAIR_ALLOC_COUNTING
  const std::size_t m = 100, l = 20, payload = packet::kPaperPayloadBytes;
  const core::Phase2Plan plan = core::plan_phase2(m, l);
  packet::PayloadArena arena;
  channel::Rng rng(14);
  // N = M x-packets announced as y_j = x_j: a missing x is a missing y.
  packet::Announcement y_ann;
  std::vector<packet::ConstByteSpan> x(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    packet::Combination unit;
    unit.add(j, gf::kOne);
    y_ann.combinations.push_back(std::move(unit));
    const packet::ByteSpan body = arena.alloc_uninit(payload);
    rng.fill(body);
    x[j] = body;
  }
  const std::vector<packet::ConstByteSpan> z =
      core::make_z_payloads(plan, x, payload, arena);
  const std::vector<packet::ConstByteSpan> s =
      core::make_s_payloads(plan, x, payload, arena);

  const auto receiver_allocs = [&](std::size_t d) {
    std::vector<packet::ConstByteSpan> own = x;
    for (std::size_t j = 0; j < d; ++j) own[(j * 37) % m] = {};
    const packet::PayloadArena::Mark mark = arena.mark();
    const std::int64_t calls = allocs_during([&] {
      const core::ReceiverOutput rx = core::receiver_round(
          y_ann, plan.s_announcement, own, z, payload, arena);
      EXPECT_EQ(rx.error, core::RoundError::kNone);
      EXPECT_TRUE(std::equal(rx.payloads[0].begin(), rx.payloads[0].end(),
                             s[0].begin(), s[0].end()));
    });
    arena.rewind(mark);
    return calls;
  };

  (void)receiver_allocs(64);  // warm the arena to the larger decode
  EXPECT_EQ(receiver_allocs(8), receiver_allocs(64));
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

TEST(RoundAlloc, EveObservationsAllocationsDoNotGrowWithCount) {
#if THINAIR_ALLOC_COUNTING
  const auto observe_allocs = [](std::uint32_t count) {
    analysis::EveView eve(200);
    std::vector<std::uint32_t> indices;
    for (std::uint32_t i = 0; i < count; ++i) indices.push_back(2 * i);
    return allocs_during([&] { eve.observe_x(indices); });
  };
  EXPECT_EQ(observe_allocs(10), observe_allocs(100));
#else
  GTEST_SKIP() << "allocation counting is disabled under the sanitizers";
#endif
}

}  // namespace
}  // namespace thinair

#if THINAIR_ALLOC_COUNTING
// Counting overloads of the global allocator, defined after all other
// code so nothing above accidentally depends on them being active.
void* operator new(std::size_t n) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void* operator new[](std::size_t n) { return operator new(n); }

void operator delete[](void* p) noexcept { std::free(p); }

void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif
