// Phase 1 and phase 2 as pure functions — announcement contents, Alice-
// and terminal-side evaluation, z-repair and s-agreement — and the
// protocol core that chains them (core/protocol.h): Alice's step against
// every receiver's step from public data, and the receiver step's
// classified errors on malformed public input.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <tuple>

#include "channel/geometry.h"
#include "channel/rng.h"
#include "core/phase1.h"
#include "core/phase2.h"
#include "core/protocol.h"
#include "gf/kernels.h"
#include "gf/linear_space.h"

namespace thinair::core {
namespace {

packet::NodeId T(std::uint16_t v) { return packet::NodeId{v}; }

using Spans = std::vector<packet::ConstByteSpan>;

Spans random_payloads(std::size_t n, std::size_t size, std::uint64_t seed,
                      packet::PayloadArena& arena) {
  channel::Rng rng(seed);
  Spans out(n);
  for (auto& p : out) {
    const packet::ByteSpan body = arena.alloc_uninit(size);
    for (auto& b : body) b = rng.next_byte();
    p = body;
  }
  return out;
}

// The x-spans a terminal holds: its received indices, empty elsewhere.
Spans held(const Spans& x, const std::vector<std::uint32_t>& received) {
  Spans out(x.size());
  for (std::uint32_t i : received) out[i] = x[i];
  return out;
}

bool same_bytes(const Spans& a, const Spans& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](packet::ConstByteSpan p, packet::ConstByteSpan q) {
                      return std::equal(p.begin(), p.end(), q.begin(),
                                        q.end());
                    });
}

struct Fixture {
  packet::PayloadArena arena;
  ReceptionTable table{T(0), {T(1), T(2)}, 9};
  std::vector<std::uint32_t> eve{0, 1, 6};
  Spans x = random_payloads(9, 16, 77, arena);

  Fixture() {
    table.set_received(T(1), {0, 1, 2, 3, 4, 5});
    table.set_received(T(2), {0, 1, 2, 6, 7});
  }

  [[nodiscard]] Phase1Result phase1() const {
    const OracleEstimator est(eve, 9);
    return run_phase1(table, est, PoolStrategy::kClassShared);
  }

  [[nodiscard]] Spans rx_payloads(packet::NodeId t) const {
    return held(x, table.received(t));
  }
};

TEST(Phase1, AnnouncementListsEveryPoolEntry) {
  const Fixture f;
  const Phase1Result r = f.phase1();
  EXPECT_EQ(r.announcement.combinations.size(), r.build.pool.size());
  EXPECT_EQ(r.announcement.combinations, r.build.pool.combinations());
}

TEST(Phase1, AliceAndTerminalAgreeOnYContents) {
  Fixture f;
  const Phase1Result r = f.phase1();
  const Spans alice_y = all_y_contents(r.build.pool, f.x, 16, f.arena);

  for (packet::NodeId t : {T(1), T(2)}) {
    const Spans own =
        reconstruct_y(r.build.pool, t, f.rx_payloads(t), 16, f.arena);
    const auto known = r.build.pool.known_indices(t);
    for (std::size_t j = 0; j < r.build.pool.size(); ++j) {
      const bool should_know =
          std::find(known.begin(), known.end(), j) != known.end();
      EXPECT_EQ(!own[j].empty(), should_know);
      if (should_know) {
        EXPECT_TRUE(std::equal(own[j].begin(), own[j].end(),
                               alice_y[j].begin(), alice_y[j].end()));
      }
    }
  }
}

TEST(Phase1, PayloadSizeMismatchThrows) {
  Fixture f;
  const Phase1Result r = f.phase1();
  EXPECT_THROW((void)all_y_contents(r.build.pool, f.x, 7, f.arena),
               std::invalid_argument);
  const Spans short_x(4);
  EXPECT_THROW((void)all_y_contents(r.build.pool, short_x, 16, f.arena),
               std::invalid_argument);
}

TEST(Phase2, PlanShapes) {
  const Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  const std::size_t m = p1.build.pool.size();
  const std::size_t l = p1.build.pool.group_secret_size();
  EXPECT_EQ(plan.pool_size, m);
  EXPECT_EQ(plan.group_size, l);
  EXPECT_EQ(plan.h.rows(), m - l);
  EXPECT_EQ(plan.c.rows(), l);
  EXPECT_EQ(plan.s_announcement.combinations.size(), l);
  EXPECT_EQ(secret_bits(plan, 16), l * 16 * 8);
}

TEST(Phase2, CodeIsThePlanWithoutAnnouncements) {
  for (const auto& [m, l] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {7, 3}, {40, 0}, {120, 17}, {255, 255}}) {
    const Phase2Plan plan = plan_phase2(m, l);
    const Phase2Plan code = phase2_code(m, l);
    EXPECT_EQ(code.pool_size, plan.pool_size);
    EXPECT_EQ(code.group_size, plan.group_size);
    EXPECT_EQ(code.h, plan.h);
    EXPECT_EQ(code.c, plan.c);
    EXPECT_TRUE(code.s_announcement.combinations.empty());
  }
  EXPECT_THROW((void)phase2_code(3, 4), std::invalid_argument);
  EXPECT_THROW((void)phase2_code(256, 1), std::invalid_argument);
}

TEST(Phase2, HStackCIsInvertible) {
  // The construction's secrecy hinge: [H; C] must be a bijection of the
  // y-space.
  const Fixture f;
  const Phase2Plan plan = plan_phase2(f.phase1().build.pool);
  EXPECT_TRUE(plan.h.vstack(plan.c).invertible());
}

TEST(Phase2, EveryTerminalRecoversAllYAndTheSameSecret) {
  Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  const Spans y = all_y_contents(p1.build.pool, f.x, 16, f.arena);
  const Spans z = make_z_payloads(plan, y, 16, f.arena);
  const Spans s = make_s_payloads(plan, y, 16, f.arena);
  ASSERT_EQ(s.size(), plan.group_size);

  for (packet::NodeId t : {T(1), T(2)}) {
    const Spans own =
        reconstruct_y(p1.build.pool, t, f.rx_payloads(t), 16, f.arena);
    const Spans full = recover_all_y(plan, own, z, 16, f.arena);
    EXPECT_TRUE(same_bytes(full, y));
    EXPECT_TRUE(same_bytes(make_s_payloads(plan, full, 16, f.arena), s));
  }
}

TEST(Phase2, EmptyPoolYieldsEmptyPlan) {
  const YPool pool(5, {T(1)});
  const Phase2Plan plan = plan_phase2(pool);
  EXPECT_EQ(plan.group_size, 0u);
  EXPECT_EQ(plan.h.rows(), 0u);
  EXPECT_EQ(plan.c.rows(), 0u);
}

TEST(Phase2, FullKnowledgeNeedsNoZPackets) {
  // Both terminals can rebuild every y: M == L, zero z-packets.
  ReceptionTable t(T(0), {T(1), T(2)}, 4);
  t.set_received(T(1), {0, 1, 2, 3});
  t.set_received(T(2), {0, 1, 2, 3});
  const OracleEstimator est({}, 4);  // Eve missed everything
  const auto build = build_pool(t, est, PoolStrategy::kClassShared);
  const Phase2Plan plan = plan_phase2(build.pool);
  EXPECT_EQ(plan.pool_size, plan.group_size);
  EXPECT_EQ(plan.h.rows(), 0u);

  packet::PayloadArena arena;
  const Spans x = random_payloads(4, 8, 5, arena);
  const Spans y = all_y_contents(build.pool, x, 8, arena);
  const Spans z = make_z_payloads(plan, y, 8, arena);
  EXPECT_TRUE(z.empty());
  EXPECT_TRUE(same_bytes(recover_all_y(plan, y, z, 8, arena), y));
}

TEST(Phase2, RecoverValidatesInputs) {
  Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  const Spans y = all_y_contents(p1.build.pool, f.x, 16, f.arena);
  const Spans z = make_z_payloads(plan, y, 16, f.arena);

  const Spans wrong_size(p1.build.pool.size() + 1);
  EXPECT_THROW((void)recover_all_y(plan, wrong_size, z, 16, f.arena),
               std::invalid_argument);

  const Spans none(p1.build.pool.size());
  if (plan.h.rows() < plan.pool_size) {  // more unknowns than z-packets
    EXPECT_THROW((void)recover_all_y(plan, none, z, 16, f.arena),
                 std::invalid_argument);
  }
}

// Restores the dispatched kernel after a test that overrides it.
struct KernelGuard {
  ~KernelGuard() { std::ignore = gf::set_active_kernel("auto"); }
};

// The repair against its definition: a terminal missing any d <= M - L
// of the y-packets rebuilds exactly the originals from z = H y, for
// random code shapes and payload lengths (including ones that end in
// every SIMD kernel's scalar tail), under every kernel. One unknown more
// than there are z-packets is refused.
TEST(Phase2, RecoverAllYMatchesReencodingOnEveryKernel) {
  const KernelGuard guard;
  channel::Rng rng(2024);
  for (const gf::Kernel* k : gf::all_kernels()) {
    ASSERT_TRUE(gf::set_active_kernel(k->name));
    for (const std::size_t payload : {1u, 7u, 100u, 1000u}) {
      for (int trial = 0; trial < 6; ++trial) {
        packet::PayloadArena arena;
        const std::size_t m = 1 + rng.next_below(255);
        const std::size_t l = 1 + rng.next_below(m);
        const Phase2Plan plan = phase2_code(m, l);
        const Spans y = random_payloads(m, payload, rng.next_u64(), arena);
        const Spans z = make_z_payloads(plan, y, payload, arena);

        // Erase a random d-subset: d = 0, d = M - L, then random sizes.
        const std::size_t d = trial == 0   ? 0
                              : trial == 1 ? m - l
                                           : rng.next_below(m - l + 1);
        std::vector<std::size_t> order(m);
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = m - 1; i > 0; --i)
          std::swap(order[i], order[rng.next_below(i + 1)]);
        Spans own = y;
        for (std::size_t i = 0; i < d; ++i) own[order[i]] = {};
        EXPECT_TRUE(same_bytes(recover_all_y(plan, own, z, payload, arena), y))
            << k->name << " M=" << m << " L=" << l << " d=" << d
            << " payload=" << payload;

        Spans too_few = y;
        for (std::size_t i = 0; i <= m - l; ++i) too_few[order[i]] = {};
        EXPECT_THROW((void)recover_all_y(plan, too_few, z, payload, arena),
                     std::invalid_argument);
      }
    }
  }
}

TEST(Phase2, SecretIsUniformGivenZForIgnorantEve) {
  // The paper's key point: when Eve knows nothing of the y-packets, the
  // public z contents give her nothing about the s-packets.
  const Fixture f;
  const Phase1Result p1 = f.phase1();
  const Phase2Plan plan = plan_phase2(p1.build.pool);
  const gf::Matrix g = p1.build.pool.rows();

  gf::LinearSpace eve(9);
  for (std::uint32_t i : f.eve) std::ignore = eve.insert_unit(i);
  if (plan.h.rows() > 0) eve.insert_rows(plan.h.mul(g));
  EXPECT_EQ(eve.residual_rank(plan.c.mul(g)), plan.group_size);
}

// Property sweep: random reception patterns, oracle estimates — all
// terminals always decode the same secret and Eve's equivocation is
// always exactly L.
class PhaseSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhaseSweep, EndToEndAgreementAndSecrecy) {
  channel::Rng rng(GetParam());
  const std::size_t n = 24;
  ReceptionTable table(T(0), {T(1), T(2), T(3)}, n);
  for (packet::NodeId t : {T(1), T(2), T(3)}) {
    std::vector<std::uint32_t> got;
    for (std::uint32_t i = 0; i < n; ++i)
      if (rng.bernoulli(0.7)) got.push_back(i);
    table.set_received(t, got);
  }
  std::vector<std::uint32_t> eve;
  for (std::uint32_t i = 0; i < n; ++i)
    if (rng.bernoulli(0.5)) eve.push_back(i);

  const OracleEstimator est(eve, n);
  packet::PayloadArena arena;
  const Spans x = random_payloads(n, 8, GetParam() + 1, arena);
  const AliceRound a =
      alice_round(table, est, PoolStrategy::kClassShared, x, 8, arena);
  const Phase2Plan& plan = a.plan;
  if (plan.group_size == 0) return;

  for (packet::NodeId t : {T(1), T(2), T(3)}) {
    const ReceiverOutput own =
        receiver_round(a.phase1.announcement, plan.s_announcement,
                       held(x, table.received(t)), a.z, 8, arena);
    ASSERT_EQ(own.error, RoundError::kNone);
    EXPECT_TRUE(same_bytes(own.payloads, a.s));
  }

  gf::LinearSpace eve_space(n);
  for (std::uint32_t i : eve) std::ignore = eve_space.insert_unit(i);
  const gf::Matrix g = a.phase1.build.pool.rows();
  if (plan.h.rows() > 0) eve_space.insert_rows(plan.h.mul(g));
  EXPECT_EQ(eve_space.residual_rank(plan.c.mul(g)), plan.group_size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhaseSweep,
                         ::testing::Range<std::uint64_t>(500, 516));

// Differential: Alice's step against every receiver's step from public
// data alone, and against the pool-audience path (reconstruct_y +
// recover_all_y) that knows Alice's private pool. Random rosters of 2-6
// terminals with random losses, every estimator the simulator and the
// daemon can run without a placement (kGeometry needs testbed cells),
// both pool strategies.
TEST(ProtocolCore, ReceiverStepMatchesAliceForEveryEstimatorAndStrategy) {
  constexpr std::size_t kPayload = 16;
  std::size_t checked = 0;
  std::size_t with_secret = 0;
  for (const std::string_view name : estimator_kind_names()) {
    EstimatorSpec spec;
    spec.kind = *estimator_kind_from_string(name);
    for (const PoolStrategy strategy :
         {PoolStrategy::kClassShared, PoolStrategy::kTerminalMds}) {
      for (std::uint64_t seed = 0; seed < 12; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << name << " / " << to_string(strategy) << " / seed "
                     << seed);
        channel::Rng rng(seed * 7919 + static_cast<std::uint64_t>(spec.kind));
        const std::size_t terminals = 2 + rng.next_below(5);  // 2..6
        const std::size_t n = 24 + rng.next_below(40);
        const double loss = 0.1 + 0.1 * static_cast<double>(rng.next_below(6));
        std::vector<packet::NodeId> receivers;
        for (std::size_t i = 1; i < terminals; ++i)
          receivers.push_back(T(static_cast<std::uint16_t>(i)));
        ReceptionTable table(T(0), receivers, n);
        std::vector<std::vector<std::uint32_t>> got(receivers.size());
        for (std::size_t ri = 0; ri < receivers.size(); ++ri) {
          for (std::uint32_t i = 0; i < n; ++i)
            if (!rng.bernoulli(loss)) got[ri].push_back(i);
          table.set_received(receivers[ri], got[ri]);
        }
        std::vector<std::uint32_t> eve;
        for (std::uint32_t i = 0; i < n; ++i)
          if (rng.bernoulli(0.5)) eve.push_back(i);

        // kGeometry reads the cells of a random valid placement (one
        // distinct cell per terminal, at most 6 of the 9, so Eve has a
        // free one) and the slot of each x-index.
        std::vector<std::size_t> receiver_cells, slot_of;
        if (spec.kind == EstimatorKind::kGeometry) {
          std::vector<std::size_t> cells(channel::CellGrid::kCells);
          for (std::size_t c = 0; c < cells.size(); ++c) cells[c] = c;
          for (std::size_t c = cells.size() - 1; c > 0; --c)
            std::swap(cells[c], cells[rng.next_below(c + 1)]);
          spec.occupied_cells.assign(cells.begin(),
                                     cells.begin() + terminals);
          receiver_cells.assign(cells.begin() + 1, cells.begin() + terminals);
          for (std::size_t i = 0; i < n; ++i) slot_of.push_back(i);
        }

        packet::PayloadArena arena;
        const Spans x = random_payloads(n, kPayload, seed + 1, arena);
        const auto est =
            build_estimator(spec, table, eve, slot_of, receiver_cells);
        const AliceRound a =
            alice_round(table, *est, strategy, x, kPayload, arena);
        const YPool& pool = a.phase1.build.pool;
        ASSERT_EQ(a.s.size(), a.plan.group_size);
        ASSERT_EQ(a.z.size(), a.plan.h.rows());
        with_secret += a.s.empty() ? 0 : 1;

        for (std::size_t ri = 0; ri < receivers.size(); ++ri) {
          const Spans own_x = held(x, got[ri]);
          const ReceiverOutput rx =
              receiver_round(a.phase1.announcement, a.plan.s_announcement,
                             own_x, a.z, kPayload, arena);
          ASSERT_EQ(rx.error, RoundError::kNone) << to_string(rx.error);
          EXPECT_TRUE(same_bytes(rx.payloads, a.s));
          ++checked;

          // The public derivation knows every y of the private audience
          // (possibly more), with Alice's contents.
          const ReceiverOutput own_y =
              receiver_y(a.phase1.announcement, own_x, kPayload, arena);
          ASSERT_EQ(own_y.error, RoundError::kNone);
          for (std::size_t j : pool.known_indices(receivers[ri])) {
            ASSERT_FALSE(own_y.payloads[j].empty());
            EXPECT_TRUE(std::equal(own_y.payloads[j].begin(),
                                   own_y.payloads[j].end(), a.y[j].begin(),
                                   a.y[j].end()));
          }
          if (a.plan.group_size > 0) {
            const Spans audience_y =
                reconstruct_y(pool, receivers[ri], own_x, kPayload, arena);
            const Spans full =
                recover_all_y(a.plan, audience_y, a.z, kPayload, arena);
            EXPECT_TRUE(same_bytes(
                make_s_payloads(a.plan, full, kPayload, arena), a.s));
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(with_secret, 20u);  // the comparison is not vacuous
}

// The receiver step's direct decode against its reference, the two-step
// path recover_all_y + make_s_payloads, under every kernel. The round is
// public data over N = M x-packets with y_j = x_j, so a missing x-packet
// is a missing y-packet. Random code shapes (M in [1, 255], L in [1, M]),
// payload lengths that end in every SIMD kernel's scalar tail, and d = 0,
// d = M - L and a random d unknowns. Half the rounds carry random
// z-contents instead of Alice's: the two paths are the same linear map,
// so they agree on any z, not only on a consistent one. One unknown more
// than there are z-packets is refused.
TEST(ProtocolCore, ReceiverRoundMatchesRecoverAllYOnEveryKernel) {
  const KernelGuard guard;
  channel::Rng rng(2025);
  for (const gf::Kernel* k : gf::all_kernels()) {
    ASSERT_TRUE(gf::set_active_kernel(k->name));
    for (const std::size_t payload : {1u, 7u, 100u, 1000u}) {
      for (int trial = 0; trial < 6; ++trial) {
        packet::PayloadArena arena;
        const std::size_t m = 1 + rng.next_below(255);
        const std::size_t l = 1 + rng.next_below(m);
        const Phase2Plan plan = plan_phase2(m, l);
        const Spans y = random_payloads(m, payload, rng.next_u64(), arena);
        const bool consistent = trial % 2 == 0;
        const Spans z =
            consistent ? make_z_payloads(plan, y, payload, arena)
                       : random_payloads(m - l, payload, rng.next_u64(), arena);
        packet::Announcement y_ann;
        for (std::uint32_t j = 0; j < m; ++j) {
          packet::Combination unit;
          unit.add(j, gf::kOne);
          y_ann.combinations.push_back(std::move(unit));
        }

        const std::size_t d = trial / 2 == 0   ? 0
                              : trial / 2 == 1 ? m - l
                                               : rng.next_below(m - l + 1);
        std::vector<std::size_t> order(m);
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = m - 1; i > 0; --i)
          std::swap(order[i], order[rng.next_below(i + 1)]);
        Spans own = y;
        for (std::size_t i = 0; i < d; ++i) own[order[i]] = {};

        const ReceiverOutput rx = receiver_round(y_ann, plan.s_announcement,
                                                 own, z, payload, arena);
        ASSERT_EQ(rx.error, RoundError::kNone) << to_string(rx.error);
        const Spans want = make_s_payloads(
            plan, recover_all_y(plan, own, z, payload, arena), payload, arena);
        EXPECT_TRUE(same_bytes(rx.payloads, want))
            << k->name << " M=" << m << " L=" << l << " d=" << d
            << " payload=" << payload << " consistent=" << consistent;
        if (consistent) {
          EXPECT_TRUE(
              same_bytes(rx.payloads, make_s_payloads(plan, y, payload, arena)));
        }

        Spans too_few = y;
        for (std::size_t i = 0; i <= m - l; ++i) too_few[order[i]] = {};
        EXPECT_EQ(receiver_round(y_ann, plan.s_announcement, too_few, z,
                                 payload, arena)
                      .error,
                  RoundError::kTooFewY);
      }
    }
  }
}

// A round with a secret, laid out as public data, to corrupt one piece at
// a time.
struct PublicRound {
  packet::PayloadArena arena;
  ReceptionTable table{T(0), {T(1), T(2)}, 30};
  Spans x = random_payloads(30, 8, 3, arena);
  std::vector<std::uint32_t> got1, got2;
  std::optional<AliceRound> a;

  PublicRound() {
    for (std::uint32_t i = 0; i < 30; ++i) {
      if (i % 3 != 0) got1.push_back(i);
      if (i % 4 != 1) got2.push_back(i);
    }
    table.set_received(T(1), got1);
    table.set_received(T(2), got2);
    const OracleEstimator est({}, 30);
    a.emplace(
        alice_round(table, est, PoolStrategy::kClassShared, x, 8, arena));
  }

  [[nodiscard]] RoundError run(const packet::Announcement& y_ann,
                               const packet::Announcement& s_ann,
                               const Spans& own_x, const Spans& z) {
    return receiver_round(y_ann, s_ann, own_x, z, 8, arena).error;
  }
};

TEST(ProtocolCore, MalformedPublicInputReturnsClassifiedErrors) {
  PublicRound r;
  const AliceRound& a = *r.a;
  const packet::Announcement& y_ann = a.phase1.announcement;
  const packet::Announcement& s_ann = a.plan.s_announcement;
  const Spans x1 = held(r.x, r.got1);
  ASSERT_GT(a.plan.group_size, 0u);
  ASSERT_GT(a.z.size(), 0u);
  ASSERT_EQ(r.run(y_ann, s_ann, x1, a.z), RoundError::kNone);

  // A y-combination reaching past N.
  packet::Announcement bad_index = y_ann;
  bad_index.combinations.back().add(30, gf::kOne);
  EXPECT_EQ(r.run(bad_index, s_ann, x1, a.z), RoundError::kIndexOutOfRange);

  // More s- than y-identities: L > M.
  packet::Announcement too_many_s = s_ann;
  too_many_s.combinations.resize(y_ann.combinations.size() + 1);
  EXPECT_EQ(r.run(y_ann, too_many_s, x1, a.z), RoundError::kGroupExceedsPool);

  // A z count other than M - L, either way.
  const Spans fewer_z(a.z.begin(), a.z.end() - 1);
  EXPECT_EQ(r.run(y_ann, s_ann, x1, fewer_z), RoundError::kZCount);
  Spans more_z = a.z;
  more_z.push_back(a.z.front());
  EXPECT_EQ(r.run(y_ann, s_ann, x1, more_z), RoundError::kZCount);

  // A z-payload of the wrong size (a missing one included).
  Spans short_z = a.z;
  short_z.back() = short_z.back().first(7);
  EXPECT_EQ(r.run(y_ann, s_ann, x1, short_z), RoundError::kPayloadSize);
  Spans gap_z = a.z;
  gap_z.front() = {};
  EXPECT_EQ(r.run(y_ann, s_ann, x1, gap_z), RoundError::kPayloadSize);

  // An own x-payload of the wrong size.
  Spans bad_x = x1;
  bad_x[1] = bad_x[1].first(4);
  EXPECT_EQ(r.run(y_ann, s_ann, bad_x, a.z), RoundError::kPayloadSize);

  // A pool beyond GF(2^8)'s phase-2 code.
  packet::Announcement huge;
  huge.combinations.resize(256);
  packet::Announcement one_s;
  one_s.combinations.resize(1);
  EXPECT_EQ(r.run(huge, one_s, x1, Spans(255, a.z.front())),
            RoundError::kPoolTooLarge);

  // A terminal that holds fewer than L y-packets cannot repair: z has too
  // few equations.
  EXPECT_EQ(r.run(y_ann, s_ann, Spans(30), a.z), RoundError::kTooFewY);

  // A round without a secret still has its announcement checked.
  EXPECT_EQ(r.run(bad_index, {}, x1, {}), RoundError::kIndexOutOfRange);
  EXPECT_EQ(r.run(y_ann, {}, x1, {}), RoundError::kNone);

  // Reports: from a node that is no receiver, over another universe,
  // with an index past N. None of them touches the table.
  ReceptionTable table(T(0), {T(1), T(2)}, 30);
  EXPECT_EQ(record_report(table, T(3), {30, {1, 2}}),
            RoundError::kNotTerminal);
  EXPECT_EQ(record_report(table, T(0), {30, {1, 2}}),
            RoundError::kNotTerminal);  // Alice reports to nobody
  EXPECT_EQ(record_report(table, T(1), {31, {1, 2}}),
            RoundError::kUniverseMismatch);
  EXPECT_EQ(record_report(table, T(1), {30, {1, 30}}),
            RoundError::kIndexOutOfRange);
  EXPECT_EQ(table.received_count(T(1)), 0u);
  EXPECT_EQ(record_report(table, T(1), {30, {1, 2}}), RoundError::kNone);
  EXPECT_EQ(table.received(T(1)), (std::vector<std::uint32_t>{1, 2}));
}

}  // namespace
}  // namespace thinair::core
