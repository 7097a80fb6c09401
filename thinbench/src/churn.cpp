// Workload `churn`: a closed loop of pooled session lifecycles on one
// thread. Each lifecycle creates a SimMedium (2 terminals + Eve, i.i.d.
// erasures p = 0.2), acquires an arena and a GroupSecretSession from the
// runtime pools, runs one round (N = 8 x-packets of 16 B, loo-fraction
// estimator) and releases both — the loop bench/micro_sessions.cpp runs.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/erasure.h"
#include "channel/rng.h"
#include "core/session.h"
#include "net/medium.h"
#include "runtime/object_pool.h"
#include "runtime/seed.h"
#include "workloads.h"

namespace thinbench {

namespace core = thinair::core;
namespace net = thinair::net;
namespace runtime = thinair::runtime;
namespace channel = thinair::channel;
namespace packet = thinair::packet;

namespace {

constexpr double kLossP = 0.2;
constexpr std::size_t kPackets = 8;
constexpr std::size_t kPayload = 16;
constexpr std::size_t kWarmup = 256;      // lifecycles that warm the pools
constexpr std::size_t kVerifyEvery = 997;  // fresh-construction replay stride
constexpr std::size_t kWindows = 20;       // throughput windows per run

core::SessionConfig config(packet::PayloadArena* arena) {
  core::SessionConfig cfg;
  cfg.x_packets_per_round = kPackets;
  cfg.payload_bytes = kPayload;
  cfg.rounds = 1;
  cfg.estimator.kind = core::EstimatorKind::kLooFraction;
  cfg.arena = arena;
  return cfg;
}

void attach(net::Medium& medium) {
  for (std::uint16_t node = 0; node < 2; ++node)
    medium.attach(packet::NodeId{node}, net::Role::kTerminal);
  medium.attach(packet::NodeId{2}, net::Role::kEavesdropper);
}

struct Pools {
  runtime::ObjectPool<core::GroupSecretSession> sessions;
  runtime::ArenaPool arenas;
};

// One pooled lifecycle: create -> run -> destroy.
core::SessionResult lifecycle(Pools& pools, const channel::ErasureModel& ch,
                              std::uint64_t seed) {
  net::SimMedium medium(ch, channel::Rng(seed));
  attach(medium);
  const auto arena = pools.arenas.acquire_scoped();
  const auto session = pools.sessions.acquire_scoped(medium, config(arena.get()));
  return session->run();
}

// The same session from fresh construction: own medium, null arena.
core::SessionResult fresh(const channel::ErasureModel& ch, std::uint64_t seed) {
  net::SimMedium medium(ch, channel::Rng(seed));
  attach(medium);
  core::GroupSecretSession session(medium, config(nullptr));
  return session.run();
}

std::unique_ptr<Pools> warm_pools(const channel::ErasureModel& ch,
                                  std::uint64_t seed) {
  auto pools = std::make_unique<Pools>();
  for (std::size_t i = 0; i < kWarmup; ++i)
    (void)lifecycle(*pools, ch, runtime::derive_seed(~seed, i));
  return pools;
}

void run_untraced(const Options& opt, Report& report) {
  const channel::IidErasure ch(kLossP);
  std::unique_ptr<Pools> pools;
  const Dist setup = time_setups(5, [&] { pools = warm_pools(ch, opt.seed); });
  report.set_dist("setup_s", setup, "s");

  struct Sample {
    std::uint64_t index;
    core::SessionResult result;
  };
  std::vector<Sample> samples;
  // Per-lifecycle latencies, in a buffer touched up front so its pages
  // count the same towards peak RSS however many sessions a run reaches.
  constexpr std::size_t kMaxSamples = std::size_t{1} << 22;
  std::vector<float> latency_us(kMaxSamples, 0.0f);
  latency_us.clear();
  std::vector<double> window_rate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  const double window_s = opt.seconds / kWindows;
  const double t_start = now_s();
  double window_start = t_start;
  std::uint64_t window_count = 0;
  for (std::uint64_t i = 0;; ++i) {
    const double t0 = now_s();
    if (t0 - window_start >= window_s) {
      window_rate.push_back(static_cast<double>(window_count) /
                            (t0 - window_start));
      window_start = t0;
      window_count = 0;
      if (window_rate.size() == kWindows) break;
    }
    ++attempted;
    try {
      core::SessionResult r =
          lifecycle(*pools, ch, runtime::derive_seed(opt.seed, i));
      const double t1 = now_s();
      if (latency_us.size() < kMaxSamples)
        latency_us.push_back(static_cast<float>((t1 - t0) * 1e6));
      ++window_count;
      if (i % kVerifyEvery == 0) samples.push_back({i, std::move(r)});
    } catch (const std::exception&) {
      ++failed;  // run() throws when a terminal decodes another secret
    }
  }
  const double wall = now_s() - t_start;

  // Output check: pooled lifecycles reproduce fresh construction exactly.
  std::uint64_t mismatched = 0;
  for (const Sample& s : samples)
    if (!same_result(s.result, fresh(ch, runtime::derive_seed(opt.seed, s.index))))
      ++mismatched;
  failed += mismatched;
  report.check("churn_pooled_equals_fresh", mismatched == 0,
               std::to_string(samples.size()) + " sampled sessions replayed, " +
                   std::to_string(mismatched) + " differ");

  const Dist rate = summarize(window_rate);
  report.set_dist("sessions_per_s", rate, "1/s");
  std::sort(latency_us.begin(), latency_us.end());  // in place: no copy
  const std::size_t n = latency_us.size();
  report.set("session_us_p50", percentile(latency_us, 0.50), "us", n);
  report.set("session_us_p90", percentile(latency_us, 0.90), "us", n);
  report.set("session_us_p99", percentile(latency_us, 0.99), "us", n);
  report.info("session_us_p25", percentile(latency_us, 0.25));
  report.info("session_us_p75", percentile(latency_us, 0.75));
  report.info("wall_s", wall);

  report.attempted = attempted;
  report.failed = failed;
}

// Traced run: each session runs once through the real pooled lifecycle
// (timed, untraced — the overhead baseline and the fidelity reference)
// and once through the traced replay on a fresh medium; both must agree.
void run_traced(const Options& opt, Report& report) {
  const channel::IidErasure ch(kLossP);
  const double overhead = clock_overhead_s();
  constexpr std::uint64_t kMaxSessions = 40000;  // bounds span memory
  Tracer tracer;
  tracer.reserve(kMaxSessions * 24);
  DrawCounts draws;
  const TimedErasure timed(ch, &tracer, overhead, draws);
  std::unique_ptr<Pools> pools = warm_pools(ch, opt.seed);
  runtime::ArenaPool replay_arenas;
  ReplayCounts counts;

  std::vector<double> acquire_ns;
  double untraced_s = 0.0;
  std::uint64_t attempted = 0, mismatched = 0;
  const double deadline = now_s() + opt.seconds;
  for (std::uint64_t i = 0;
       i < kMaxSessions && tracer.has_room(64) && now_s() < deadline; ++i) {
    const std::uint64_t seed = runtime::derive_seed(opt.seed, i);
    ++attempted;
    core::SessionResult real;
    {
      const double t0 = now_s();
      net::SimMedium medium(ch, channel::Rng(seed));
      attach(medium);
      const double a0 = now_s();
      const auto arena = pools->arenas.acquire_scoped();
      const auto session =
          pools->sessions.acquire_scoped(medium, config(arena.get()));
      const double a1 = now_s();
      real = session->run();
      untraced_s += now_s() - t0 - 2.0 * overhead;  // minus the a0/a1 reads
      acquire_ns.push_back((a1 - a0 - overhead) * 1e9);
    }
    core::SessionResult traced;
    {
      const Scope root(&tracer, Kind::kSession, i);
      std::unique_ptr<net::SimMedium> medium;
      {
        const Scope s(&tracer, Kind::kMedium, i);
        medium = std::make_unique<net::SimMedium>(timed, channel::Rng(seed));
        attach(*medium);
      }
      runtime::ArenaPool::Handle arena;
      {
        const Scope s(&tracer, Kind::kPoolAcquire, i);
        arena = replay_arenas.acquire_scoped();
      }
      traced = replay_group(*medium, config(arena.get()), tracer, i, counts);
      {
        const Scope s(&tracer, Kind::kPoolAcquire, i);
        arena.reset();
      }
      const Scope s(&tracer, Kind::kMedium, i);
      medium.reset();
    }
    if (!same_result(real, traced)) ++mismatched;
  }
  report.attempted = attempted;
  report.failed = mismatched;
  report.check("trace_replay_equals_session", mismatched == 0,
               std::to_string(attempted) + " sessions replayed, " +
                   std::to_string(mismatched) + " differ from "
                   "GroupSecretSession::run()");

  report_replay_layers(tracer, counts, draws, report);
  const Tracer::Totals t = tracer.totals();
  report.set("trace.overhead_frac",
             untraced_s > 0.0 ? t.root_s / untraced_s - 1.0 : 0.0, "frac",
             attempted);
  report.set_dist("runtime.pool_acquire_ns", summarize(acquire_ns), "ns");
  report.set("runtime.pool_hit_rate",
             pools->sessions.stats().snapshot().hit_rate(), "frac");
  report.set("packet.arena_capacity_kb",
             static_cast<double>(pools->arenas.capacity()) / 1024.0, "KiB");
  static const char* const kChannelBuild[] = {"channel.build_us_per_case"};
  report_absent(report, kChannelBuild, 1,
                "churn shares one IidErasure across every session; no channel "
                "is built per unit");
  static const char* const kEngine[] = {
      "runtime.worker_util", "runtime.case_ms_p50", "runtime.case_ms_p99",
      "runtime.sink_tail_ms", "runtime.plan_ms"};
  report_absent(report, kEngine, 5, "churn does not use the sweep engine");
  report_absent(report, kNetdMetrics, kNetdMetricCount,
                "churn runs in process: no daemon, no wire");
  if (!write_file(opt.out_dir + "/churn-spans.csv", tracer.to_csv()))
    report.info("spans_file", "not written");
}

}  // namespace

void run_churn(const Options& opt, Report& report) {
  if (opt.trace)
    run_traced(opt, report);
  else
    run_untraced(opt, report);
}

}  // namespace thinbench
