// Per-layer metrics of the in-process traced replays, derived from the
// span totals of one Tracer.

#include "workloads.h"

namespace thinbench {

namespace {

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

}  // namespace

void report_replay_layers(const Tracer& tracer, const ReplayCounts& counts,
                          const DrawCounts& draws, Report& report) {
  const Tracer::Totals t = tracer.totals();
  const double rounds = static_cast<double>(counts.rounds);
  const auto k = [](Kind kind) { return static_cast<std::size_t>(kind); };
  const auto layer = [&](Layer l) {
    return share(t.layer_self_s[static_cast<std::size_t>(l)], t.root_s);
  };
  const auto us_per_round = [&](double s) { return share(s, rounds) * 1e6; };
  const std::size_t n = counts.rounds;

  report.set("gf.encode_us_per_round", us_per_round(t.total_s[k(Kind::kEncode)]),
             "us", n);
  report.set("gf.decode_us_per_round", us_per_round(t.total_s[k(Kind::kDecode)]),
             "us", n);
  report.set("gf.self_frac", layer(Layer::kGf), "frac");
  report.set("gf.bytes_per_round", share(counts.gf_bytes, rounds), "B", n);

  report.set("analysis.leakage_us_per_round",
             us_per_round(t.total_s[k(Kind::kEveView)] +
                          t.total_s[k(Kind::kLeakage)]),
             "us", n);
  report.set("analysis.self_frac", layer(Layer::kAnalysis), "frac");
  report.set("packet.serialize_us_per_round",
             us_per_round(t.total_s[k(Kind::kSerialize)]), "us", n);

  report.set("channel.draws_per_round",
             share(static_cast<double>(draws.draws), rounds), "count", n);
  report.set("channel.draw_ns",
             share(draws.sampled_s, static_cast<double>(draws.sampled)) * 1e9,
             "ns", draws.sampled);
  report.set("channel.self_frac", layer(Layer::kChannel), "frac");

  report.set("core.estimator_us_per_round",
             us_per_round(t.total_s[k(Kind::kEstimator)]), "us", n);
  report.set("core.phase1_us_per_round",
             us_per_round(t.total_s[k(Kind::kPhase1)]), "us", n);
  report.set("core.phase2_plan_us_per_round",
             us_per_round(t.total_s[k(Kind::kPhase2Plan)]), "us", n);
  report.set("core.self_frac", layer(Layer::kCore), "frac");

  report.set("net.transmits_per_round",
             share(static_cast<double>(counts.transmits), rounds), "count", n);
  report.set("net.self_frac", layer(Layer::kNet), "frac");
  report.set("net.reliable_attempts_per_packet",
             share(static_cast<double>(counts.reliable_attempts),
                   static_cast<double>(counts.reliable_packets)),
             "count", counts.reliable_packets);
  report.set("testbed.self_frac", layer(Layer::kTestbed), "frac");

  report.set("trace.unattributed_frac", layer(Layer::kGlue), "frac");
  report.info("trace.spans", static_cast<double>(tracer.spans().size()));
  report.info("trace.root_s", t.root_s);
  report.info("trace.span_bookkeeping_frac", share(t.bookkeeping_s, t.root_s));
  report.info("trace.child_cost_ns", tracer.child_cost_s() * 1e9);
  for (std::size_t l = 0; l < kLayerCount; ++l)
    report.info(std::string("trace.self_frac.") + layer_name(static_cast<Layer>(l)),
                share(t.layer_self_s[l], t.root_s));
}

const char* const kNetdMetrics[kNetdMetricCount] = {
    "netd.daemon_cpu_util",        "netd.daemon_cpu_us_per_session",
    "netd.hub_us_per_datagram",    "netd.datagrams_per_session",
    "netd.relays_per_session",     "netd.retx_per_session",
    "netd.client_us_per_session",  "netd.syscalls_per_session",
    "netd.syscall_us_per_session", "netd.pool_hit_rate",
    "netd.in_flight_max",          "loadgen.lag_p99_ms",
    "loadgen.cpu_util"};

void report_absent(Report& report, const char* const* names, std::size_t n,
                   const std::string& why) {
  for (std::size_t i = 0; i < n; ++i) {
    report.set(names[i], 0.0, "none", 0);
    report.absent(names[i], why);
  }
}

}  // namespace thinbench
