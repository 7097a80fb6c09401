// Workloads `sweep-fig1` and `sweep-headline`: a paper scenario through
// runtime::run_scenario with 3 case threads (2 pool workers plus the
// submitting thread; the sink's drainer makes 4). NDJSON is formatted by
// the sink as usual but streamed into a SHA-256 instead of a file.
//
//   sweep-fig1      fig1 (i.i.d. channel, N = 200, 100 B, n in {2,3,6,10},
//                   6 rounds, group + unicast), lengthened with
//                   sweep.repeats = kFig1Repeats.
//   sweep-headline  headline (testbed SINR channel, N = 90, n = 3..8,
//                   geometry estimator, every placement: 1971 cases).

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "channel/factory.h"
#include "core/unicast.h"
#include "net/medium.h"
#include "runtime/engine.h"
#include "runtime/result_sink.h"
#include "runtime/scenarios.h"
#include "runtime/seed.h"
#include "testbed/experiment.h"
#include "testbed/layout.h"
#include "testbed/placements.h"
#include "util/sha256.h"
#include "workloads.h"

namespace thinbench {

namespace rt = thinair::runtime;
namespace core = thinair::core;
namespace net = thinair::net;
namespace channel = thinair::channel;
namespace packet = thinair::packet;
namespace testbed = thinair::testbed;

namespace {

constexpr std::size_t kThreads = 3;
constexpr std::size_t kFig1Repeats = 8;
constexpr int kSetupReps = 9;

bool is_fig1(const Options& opt) { return opt.workload == "sweep-fig1"; }

rt::ScenarioSpec spec_for(const Options& opt) {
  if (is_fig1(opt)) return rt::fig1_spec().with_repeats(kFig1Repeats);
  return rt::headline_spec();
}

/// Plan prefix the 1-thread reference re-runs.
std::size_t prefix_cases(const Options& opt) { return is_fig1(opt) ? 72 : 150; }

/// An output stream target that hashes everything written to it, and
/// separately the first `prefix_lines` lines.
class HashBuf final : public std::streambuf {
 public:
  explicit HashBuf(std::size_t prefix_lines) : prefix_lines_(prefix_lines) {}
  std::string full_hex() { return all_.hex(); }
  std::string prefix_hex() { return prefix_.hex(); }
  [[nodiscard]] std::size_t lines() const { return lines_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    feed(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      const char ch = traits_type::to_char_type(c);
      feed(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  void feed(const char* s, std::size_t n) {
    all_.update(std::string_view(s, n));
    std::size_t done = 0;
    while (done < n) {
      const char* nl = static_cast<const char*>(std::memchr(s + done, '\n', n - done));
      const std::size_t end = nl == nullptr ? n : static_cast<std::size_t>(nl - s) + 1;
      if (lines_ < prefix_lines_) prefix_.update(std::string_view(s + done, end - done));
      if (nl != nullptr) ++lines_;
      done = end;
    }
  }

  std::size_t prefix_lines_;
  std::size_t lines_ = 0;
  thinair::util::Sha256 all_;
  thinair::util::Sha256 prefix_;
};

struct PassResult {
  rt::RunStats stats;
  double wall_s = 0.0;
  std::string full_hex;
  std::string prefix_hex;
  std::size_t lines = 0;
};

/// Per-case timing the wrapper around Scenario::run records.
struct CaseTimes {
  std::vector<double> start, end;
  std::vector<rt::CaseResult> results;  // filled when `keep` is set
};

/// Run one pass of `plan` on the engine. Case functions are wrapped so
/// each case's start/end lands in `times` (index-disjoint writes).
PassResult run_pass(const rt::Scenario& scenario, const rt::SweepPlan& plan,
                    std::uint64_t seed, std::size_t threads, std::size_t limit,
                    std::size_t prefix, CaseTimes* times, bool keep) {
  rt::Scenario wrapped = scenario;
  wrapped.plan = [&plan] { return plan; };
  if (times != nullptr) {
    times->start.assign(plan.size(), 0.0);
    times->end.assign(plan.size(), 0.0);
    if (keep) times->results.assign(plan.size(), {});
    wrapped.run = [&scenario, times, keep](const rt::CaseSpec& cs) {
      const double t0 = now_s();
      rt::CaseResult r = scenario.run(cs);
      times->end[cs.index] = now_s();
      times->start[cs.index] = t0;
      if (keep) times->results[cs.index] = r;
      return r;
    };
  }
  HashBuf buf(prefix);
  std::ostream os(&buf);
  rt::RunOptions ro;
  ro.threads = threads;
  ro.master_seed = seed;
  ro.limit = limit;
  PassResult p;
  const double t0 = now_s();
  {
    rt::ResultSink sink(scenario.name, &os);
    p.stats = rt::run_scenario(wrapped, ro, sink);
  }
  p.wall_s = now_s() - t0;
  p.full_hex = buf.full_hex();
  p.prefix_hex = buf.prefix_hex();
  p.lines = buf.lines();
  return p;
}

/// Cold set-up time — scenario compile plus plan expansion (placement
/// enumeration for the testbed) — measured in a fresh child process each
/// time, since the placement cache is process-wide.
Dist cold_setups(const rt::ScenarioSpec& spec) {
  std::vector<double> t;
  for (int i = 0; i < kSetupReps; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      const double t0 = now_s();
      const rt::Scenario s = rt::compile(spec);
      const rt::SweepPlan plan = s.plan();
      double dt = now_s() - t0;
      if (plan.empty()) dt = -1.0;
      const bool ok = ::write(fds[1], &dt, sizeof dt) == sizeof dt;
      ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    double dt = -1.0;
    const bool got = ::read(fds[0], &dt, sizeof dt) == sizeof dt;
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || dt < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("set-up child failed");
    t.push_back(dt);
  }
  return summarize(t);
}

void check_reference(const Options& opt, const rt::Scenario& scenario,
                     const rt::SweepPlan& plan, const PassResult& measured,
                     Report& report) {
  const std::size_t k = std::min(prefix_cases(opt), plan.size());
  const PassResult ref =
      run_pass(scenario, plan, opt.seed, 1, k, k, nullptr, false);
  const bool ok = ref.prefix_hex == measured.prefix_hex;
  if (!ok) report.failed += k;
  report.check("ndjson_prefix_equals_1_thread", ok,
               "first " + std::to_string(k) + " records sha256 " +
                   measured.prefix_hex.substr(0, 16) + " vs 1-thread " +
                   ref.prefix_hex.substr(0, 16));
}

void run_untraced(const Options& opt, Report& report) {
  const rt::ScenarioSpec spec = spec_for(opt);
  report.set_dist("setup_s", cold_setups(spec), "s");
  const rt::Scenario scenario = rt::compile(spec);
  const rt::SweepPlan plan = scenario.plan();
  const std::size_t prefix = std::min(prefix_cases(opt), plan.size());

  std::vector<double> rates;
  std::vector<double> case_ms;
  std::vector<PassResult> passes;
  const double t_start = now_s();
  while (passes.size() < 3 || now_s() - t_start < opt.seconds) {
    CaseTimes times;
    PassResult p = run_pass(scenario, plan, opt.seed, kThreads, 0, prefix,
                            &times, false);
    report.attempted += p.stats.cases;
    rates.push_back(static_cast<double>(p.stats.cases) / p.wall_s);
    for (std::size_t i = 0; i < plan.size(); ++i)
      case_ms.push_back((times.end[i] - times.start[i]) * 1e3);
    passes.push_back(std::move(p));
  }

  // Every pass ran the same seed, so every pass must emit the same bytes.
  std::size_t differing = 0;
  for (const PassResult& p : passes)
    if (p.full_hex != passes.front().full_hex || p.lines != plan.size()) {
      ++differing;
      report.failed += p.stats.cases;
    }
  report.check("ndjson_identical_across_passes", differing == 0,
               std::to_string(passes.size()) + " passes, sha256 " +
                   passes.front().full_hex.substr(0, 16) + ", " +
                   std::to_string(differing) + " differ");
  check_reference(opt, scenario, plan, passes.front(), report);

  report.set_dist("cases_per_s", summarize(rates), "1/s");
  std::sort(case_ms.begin(), case_ms.end());
  const Dist c = summarize(case_ms);
  report.set("case_ms_p90", percentile(case_ms, 0.90), "ms", c.n);
  report.set("case_ms_p50", c.p50, "ms", c.n);
  report.set("case_ms_p99", c.p99, "ms", c.n);
  report.info("case_ms_p25", c.p25);
  report.info("case_ms_p75", c.p75);
  report.info("plan_cases", static_cast<double>(plan.size()));
  report.info("passes", static_cast<double>(passes.size()));
  report.info("ndjson_sha256", passes.front().full_hex);
  report.info("threads", static_cast<double>(kThreads));
}

// ---------------------------------------------------------------- traced

/// The SessionConfig compile() derives for series 0 of `spec`.
core::SessionConfig session_config(const rt::ScenarioSpec& spec,
                                   packet::PayloadArena* arena) {
  core::SessionConfig cfg;
  cfg.x_packets_per_round = spec.session.x_packets;
  cfg.payload_bytes = spec.session.payload_bytes;
  cfg.rounds = spec.session.rounds;
  cfg.rotate_alice = spec.session.rotate_alice;
  cfg.pool_strategy = spec.session.pool;
  cfg.estimator.kind = spec.estimator.series.front().kind;
  cfg.estimator.k_antennas = spec.estimator.k_antennas;
  cfg.estimator.fraction_delta = spec.estimator.fraction_delta;
  cfg.estimator.loo_safety = spec.estimator.safety;
  cfg.arena = arena;
  return cfg;
}

void attach_flat(net::Medium& m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    m.attach(testbed::terminal_node(i), net::Role::kTerminal);
  m.attach(testbed::eve_node(n), net::Role::kEavesdropper);
}

/// Traced replay of one case plus its fidelity checks. Returns false on a
/// mismatch with the engine's record or with the real session classes.
class CaseReplayer {
 public:
  CaseReplayer(const rt::ScenarioSpec& spec, Tracer& tracer, double overhead)
      : spec_(spec), tracer_(tracer), overhead_(overhead) {
    if (spec.channel.model == channel::ChannelModelKind::kTestbed)
      for (const std::size_t n : spec.topology.n_values)
        placements_[n] = testbed::sample_placements(
            n, spec.estimator.series.front().max_placements != 0
                   ? spec.estimator.series.front().max_placements
                   : spec.topology.max_placements);
  }

  bool replay(const rt::CaseSpec& cs, const rt::CaseResult& record) {
    const auto n = static_cast<std::size_t>(rt::param(cs.params, "n"));
    if (spec_.channel.model == channel::ChannelModelKind::kTestbed)
      return replay_testbed(cs, n, record);
    return replay_flat(cs, n, record);
  }

  ReplayCounts counts;
  std::vector<double> acquire_ns;
  DrawCounts draws;

 private:
  bool replay_flat(const rt::CaseSpec& cs, std::size_t n,
                   const rt::CaseResult& record) {
    const double p = rt::param(cs.params, "p");
    const std::uint64_t seed2 = rt::derive_seed2(cs.seed, cs.index);
    const core::SessionConfig cfg = session_config(spec_, &arena_);
    core::SessionResult group, unicast;
    std::unique_ptr<channel::ErasureModel> model;
    {
      const Scope root(&tracer_, Kind::kCase, cs.index);
      {
        const Scope s(&tracer_, Kind::kChannelBuild, cs.index);
        model = channel::make_erasure_model(spec_.channel.model, p,
                                            spec_.channel.default_p,
                                            spec_.channel.links);
      }
      const TimedErasure timed(*model, &tracer_, overhead_, draws);
      group = run_flat<false>(timed, cs.seed, n, cfg, cs.index);
      unicast = run_flat<true>(timed, seed2, n, cfg, cs.index);
    }
    time_acquire(*model, cs.seed, n, cfg);

    // Against the real classes, freshly constructed.
    bool ok = same_result(group, fresh<core::GroupSecretSession>(*model, cs.seed, n)) &&
              same_result(unicast, fresh<core::UnicastSession>(*model, seed2, n));
    // Against the engine's NDJSON record.
    const std::size_t payload = spec_.session.payload_bytes;
    ok = ok && rt::metric(record, "group_sim") == group.data_efficiency(payload) &&
         rt::metric(record, "unicast_sim") == unicast.data_efficiency(payload);
    return ok;
  }

  bool replay_testbed(const rt::CaseSpec& cs, std::size_t n,
                      const rt::CaseResult& record) {
    const testbed::Placement& placement = placements_.at(n).at(
        static_cast<std::size_t>(rt::param(cs.params, "placement")));
    core::SessionConfig cfg = session_config(spec_, &arena_);
    for (const channel::CellIndex c : placement.terminal_cells)
      cfg.estimator.occupied_cells.push_back(c.value);
    core::SessionResult group;
    {
      const Scope root(&tracer_, Kind::kCase, cs.index);
      std::optional<channel::TestbedChannel> ch;
      std::optional<TimedErasure> timed;
      std::unique_ptr<net::SimMedium> medium;
      {
        const Scope s(&tracer_, Kind::kExperiment, cs.index);
        {
          const Scope b(&tracer_, Kind::kChannelBuild, cs.index);
          ch.emplace(testbed::build_channel(placement, spec_.channel.testbed));
        }
        timed.emplace(*ch, &tracer_, overhead_, draws);
        const Scope m(&tracer_, Kind::kMedium, cs.index);
        medium = std::make_unique<net::SimMedium>(
            *timed, channel::Rng(cs.seed), spec_.mac);
        attach_flat(*medium, n);
      }
      group = replay_group(*medium, cfg, tracer_, cs.index, counts);
      const Scope m(&tracer_, Kind::kMedium, cs.index);
      medium.reset();
    }
    {
      const channel::TestbedChannel ch =
          testbed::build_channel(placement, spec_.channel.testbed);
      time_acquire(ch, cs.seed, n, cfg);
    }

    testbed::ExperimentConfig exp;
    exp.placement = placement;
    exp.session = session_config(spec_, nullptr);
    exp.channel = spec_.channel.testbed;
    exp.mac = spec_.mac;
    exp.seed = cs.seed;
    bool ok = same_result(group, testbed::run_experiment(exp).session);
    ok = ok && rt::metric(record, "reliability") == group.reliability() &&
         rt::metric(record, "efficiency") == group.efficiency() &&
         rt::metric(record, "secret_rate_bps") == group.secret_rate_bps();
    return ok;
  }

  template <bool kUnicast>
  core::SessionResult run_flat(const channel::ErasureModel& model,
                               std::uint64_t seed, std::size_t n,
                               const core::SessionConfig& cfg,
                               std::uint64_t unit) {
    std::unique_ptr<net::SimMedium> medium;
    {
      const Scope s(&tracer_, Kind::kMedium, unit);
      medium = std::make_unique<net::SimMedium>(model, channel::Rng(seed),
                                                spec_.mac);
      attach_flat(*medium, n);
    }
    core::SessionResult r =
        kUnicast ? replay_unicast(*medium, cfg, tracer_, unit, counts)
                 : replay_group(*medium, cfg, tracer_, unit, counts);
    const Scope s(&tracer_, Kind::kMedium, unit);
    medium.reset();
    return r;
  }

  template <typename Session>
  core::SessionResult fresh(const channel::ErasureModel& model,
                            std::uint64_t seed, std::size_t n) {
    net::SimMedium medium(model, channel::Rng(seed), spec_.mac);
    attach_flat(medium, n);
    Session session(medium, session_config(spec_, nullptr));
    return session.run();
  }

  // What the engine's pooled acquire costs for this case: a session from
  // this thread's worker pool, reset onto the case's medium and config.
  void time_acquire(const channel::ErasureModel& model, std::uint64_t seed,
                    std::size_t n, const core::SessionConfig& cfg) {
    net::SimMedium medium(model, channel::Rng(seed), spec_.mac);
    attach_flat(medium, n);
    const double t0 = now_s();
    { const auto h = rt::worker_pools().group_sessions.acquire_scoped(medium, cfg); }
    acquire_ns.push_back((now_s() - t0) * 1e9);
  }

  const rt::ScenarioSpec& spec_;
  Tracer& tracer_;
  double overhead_;
  packet::PayloadArena arena_;
  std::map<std::size_t, std::vector<testbed::Placement>> placements_;
};

void run_traced(const Options& opt, Report& report) {
  const rt::ScenarioSpec spec = spec_for(opt);
  const rt::Scenario scenario = rt::compile(spec);
  const Dist plan_s = time_setups(5, [&] { (void)scenario.plan(); });
  const rt::SweepPlan plan = scenario.plan();

  // 1. One engine pass with case spans: the runtime layer's metrics and
  //    the records the replay is checked against.
  CaseTimes times;
  const PassResult pass = run_pass(scenario, plan, opt.seed, kThreads, 0,
                                   prefix_cases(opt), &times, true);
  double busy = 0.0, last_end = 0.0, first_start = times.start.front();
  std::vector<double> case_ms;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    busy += times.end[i] - times.start[i];
    last_end = std::max(last_end, times.end[i]);
    first_start = std::min(first_start, times.start[i]);
    case_ms.push_back((times.end[i] - times.start[i]) * 1e3);
  }
  const double engine_wall = pass.stats.wall_s;
  report.set("runtime.worker_util",
             busy / (engine_wall * static_cast<double>(pass.stats.threads)),
             "frac", plan.size());
  const Dist c = summarize(case_ms);
  report.set("runtime.case_ms_p50", c.p50, "ms", c.n);
  report.set("runtime.case_ms_p99", c.p99, "ms", c.n);
  // Engine clock starts before the first case and stops after the sink
  // drained; the tail is what remains after the last case finished.
  report.set("runtime.sink_tail_ms",
             std::max(0.0, engine_wall - (last_end - first_start)) * 1e3, "ms");
  report.set_dist("runtime.plan_ms", plan_s, "ms", 1e3);
  const rt::PoolCounters pc = rt::worker_pools().group_sessions.stats().snapshot();
  report.set("runtime.pool_hit_rate", pc.hit_rate(), "frac", pc.acquired);
  report.set("packet.arena_capacity_kb",
             static_cast<double>(rt::worker_arena().capacity() +
                                 rt::worker_pools().arenas.capacity()) /
                 1024.0,
             "KiB");

  // 2. Traced replay of a strided subset of cases, each also timed
  //    untraced through the scenario's own case function.
  Tracer tracer;
  tracer.reserve(is_fig1(opt) ? 1500000 : 600000);
  const double overhead = clock_overhead_s();
  CaseReplayer replayer(spec, tracer, overhead);
  const std::size_t stride = 7;
  double untraced_s = 0.0;
  std::uint64_t replayed = 0, mismatched = 0;
  const double deadline = now_s() + opt.seconds * 0.6;
  for (std::size_t k = 0; k < plan.size() && now_s() < deadline &&
                          tracer.has_room(20000);
       ++k) {
    const std::size_t index = (k * stride) % plan.size();
    const rt::CaseSpec cs{index, rt::derive_seed(opt.seed, index),
                          plan.at(index)};
    rt::worker_arena().reset();
    const double t0 = now_s();
    const rt::CaseResult direct = scenario.run(cs);
    untraced_s += now_s() - t0;
    bool ok = replayer.replay(cs, times.results[index]);
    ok = ok && direct.metrics.size() == times.results[index].metrics.size();
    for (std::size_t m = 0; ok && m < direct.metrics.size(); ++m)
      ok = direct.metrics[m].value == times.results[index].metrics[m].value;
    ++replayed;
    if (!ok) ++mismatched;
  }
  report.attempted = replayed;
  report.failed = mismatched;
  report.check("trace_replay_equals_engine", mismatched == 0,
               std::to_string(replayed) + " cases replayed, " +
                   std::to_string(mismatched) +
                   " differ from the engine record or the session classes");

  report_replay_layers(tracer, replayer.counts, replayer.draws, report);
  const Tracer::Totals t = tracer.totals();
  report.set("channel.build_us_per_case",
             replayed > 0 ? t.total_s[static_cast<std::size_t>(Kind::kChannelBuild)] /
                                static_cast<double>(replayed) * 1e6
                          : 0.0,
             "us", replayed);
  report.set("trace.overhead_frac",
             untraced_s > 0.0 ? t.root_s / untraced_s - 1.0 : 0.0, "frac",
             replayed);
  report.set_dist("runtime.pool_acquire_ns", summarize(replayer.acquire_ns), "ns");
  report_absent(report, kNetdMetrics, kNetdMetricCount,
                "the sweep runs in process: no daemon, no wire");
  report.info("engine_wall_s", engine_wall);
  report.info("replay_stride", static_cast<double>(stride));
  if (!write_file(opt.out_dir + "/" + opt.workload + "-spans.csv",
                  tracer.to_csv()))
    report.info("spans_file", "not written");
  std::string cases = "index,start_s,end_s\n";
  for (std::size_t i = 0; i < plan.size(); ++i)
    cases += std::to_string(i) + "," + std::to_string(times.start[i] - first_start) +
             "," + std::to_string(times.end[i] - first_start) + "\n";
  if (!write_file(opt.out_dir + "/" + opt.workload + "-cases.csv", cases))
    report.info("cases_file", "not written");
}

}  // namespace

void run_sweep(const Options& opt, Report& report) {
  if (opt.trace)
    run_traced(opt, report);
  else
    run_untraced(opt, report);
}

}  // namespace thinbench
