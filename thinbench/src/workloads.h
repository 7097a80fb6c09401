#pragma once
// The four benchmark workloads (README.md explains why each exists).
// Each fills `report` with its end-to-end metrics (trace off) or its
// per-layer metrics (trace on), plus its output checks.

#include "common.h"
#include "replay.h"
#include "trace.h"

namespace thinbench {

void run_churn(const Options& opt, Report& report);
void run_sweep(const Options& opt, Report& report);  // sweep-fig1 / -headline
void run_served(const Options& opt, Report& report);

/// Every per-layer metric the in-process traced replays derive from their
/// spans and counts (gf, analysis, packet, channel, core, net, testbed and
/// the trace-health ratio trace.unattributed_frac).
void report_replay_layers(const Tracer& tracer, const ReplayCounts& counts,
                          const DrawCounts& draws, Report& report);

/// The served workload's per-layer metrics (netd.* and loadgen.*).
extern const char* const kNetdMetrics[];
inline constexpr std::size_t kNetdMetricCount = 13;

/// Zero-valued placeholders, with the reason, for per-layer metrics a
/// workload has no such layer for.
void report_absent(Report& report, const char* const* names, std::size_t n,
                   const std::string& why);

/// Median of `reps` timed calls of `setup` — how every workload reports
/// setup_s (one cold set-up is a single noisy sample).
template <typename F>
Dist time_setups(int reps, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return summarize(t);
}

}  // namespace thinbench
