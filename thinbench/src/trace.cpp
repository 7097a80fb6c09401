#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common.h"

namespace thinbench {

namespace {

struct KindInfo {
  const char* name;
  Layer layer;
};

constexpr KindInfo kKinds[kKindCount] = {
    {"session", Layer::kGlue},
    {"case", Layer::kGlue},
    {"round", Layer::kGlue},
    {"testbed.experiment", Layer::kTestbed},
    {"channel.build", Layer::kChannel},
    {"net.medium", Layer::kNet},
    {"net.open_round", Layer::kNet},
    {"core.estimator", Layer::kCore},
    {"core.phase1", Layer::kCore},
    {"core.phase2_plan", Layer::kCore},
    {"core.unicast_assign", Layer::kCore},
    {"packet.serialize", Layer::kPacket},
    {"net.reliable", Layer::kNet},
    {"gf.encode", Layer::kGf},
    {"gf.decode", Layer::kGf},
    {"gf.secret_rows", Layer::kGf},
    {"analysis.eve_view", Layer::kAnalysis},
    {"analysis.leakage", Layer::kAnalysis},
    {"netd.node_session", Layer::kNetd},
    {"netd.udp_send", Layer::kNetd},
    {"netd.udp_recv", Layer::kNetd},
    {"netd.poll", Layer::kNetd},
    {"packet.arena", Layer::kPacket},
    {"core.round_epilogue", Layer::kCore},
    {"runtime.pool", Layer::kRuntime},
    {"client_loop", Layer::kGlue},
};

constexpr const char* kLayerNames[kLayerCount] = {
    "glue",   "channel", "net",     "core",    "gf",
    "analysis", "packet", "runtime", "testbed", "netd"};

#if defined(__x86_64__)
double seconds_per_tick() {
  static const double value = [] {
    const double t0 = now_s();
    const unsigned long long c0 = __rdtsc();
    double t1 = t0;
    while (t1 - t0 < 0.02) t1 = now_s();
    const unsigned long long c1 = __rdtsc();
    return (t1 - t0) / static_cast<double>(c1 - c0);
  }();
  return value;
}
#endif

}  // namespace

double trace_now() {
#if defined(__x86_64__)
  return static_cast<double>(__rdtsc()) * seconds_per_tick();
#else
  return now_s();
#endif
}

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}
const char* kind_name(Kind kind) {
  return kKinds[static_cast<std::size_t>(kind)].name;
}
Layer kind_layer(Kind kind) {
  return kKinds[static_cast<std::size_t>(kind)].layer;
}

Tracer::Tracer() {
  (void)trace_now();  // calibrate the tick rate before timing anything
  // Time 64 empty children inside a parent, a few times over, and keep
  // the median per-child cost the parent absorbed.
  std::vector<double> per_child;
  spans_.reserve(65);
  for (int trial = 0; trial < 101; ++trial) {
    const std::uint32_t parent = open(Kind::kSession, 0);
    for (int i = 0; i < 64; ++i) close(open(Kind::kRound, 0));
    close(parent);
    const Span& p = spans_[parent];
    per_child.push_back(((p.end - p.start) - p.child) / 64.0);
    spans_.clear();
  }
  std::nth_element(per_child.begin(), per_child.begin() + 50, per_child.end());
  child_cost_s_ = per_child[50];
}

std::uint32_t Tracer::open(Kind kind, std::uint64_t unit) {
  Span s;
  s.kind = kind;
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.unit = unit;
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(index);
  spans_[index].start = trace_now();  // last: set-up stays outside the span
  return index;
}

void Tracer::close(std::uint32_t index) {
  const double end = trace_now();
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("Tracer: spans closed out of order");
  stack_.pop_back();
  Span& s = spans_[index];
  s.end = end;
  if (s.parent != kNoParent) {
    spans_[s.parent].child += end - s.start;
    spans_[s.parent].children += 1;
  }
}

void Tracer::add_external(double seconds) {
  if (!stack_.empty()) spans_[stack_.back()].external += seconds;
}

Tracer::Totals Tracer::totals() const {
  Totals t;
  for (const Span& s : spans_) {
    const auto k = static_cast<std::size_t>(s.kind);
    const double dur = s.end - s.start;
    t.total_s[k] += dur;
    t.count[k] += 1;
    t.external_s += s.external;
    t.layer_self_s[static_cast<std::size_t>(kind_layer(s.kind))] +=
        self_time(s);
    if (s.parent == kNoParent) t.root_s += dur;
    t.bookkeeping_s += static_cast<double>(s.children) * child_cost_s_;
  }
  t.layer_self_s[static_cast<std::size_t>(Layer::kChannel)] += t.external_s;
  return t;
}

std::string Tracer::to_csv() const {
  std::string out = "kind,layer,unit,parent,start_ns,end_ns,self_ns\n";
  if (spans_.empty()) return out;
  const double t0 = spans_.front().start;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line, "%s,%s,%llu,%lld,%.0f,%.0f,%.0f\n",
                  kind_name(s.kind), layer_name(kind_layer(s.kind)),
                  static_cast<unsigned long long>(s.unit),
                  s.parent == kNoParent ? -1LL
                                        : static_cast<long long>(s.parent),
                  (s.start - t0) * 1e9, (s.end - t0) * 1e9,
                  self_time(s) * 1e9);
    out += line;
  }
  return out;
}

double clock_overhead_s() {
  std::vector<double> d;
  d.reserve(4001);
  for (int i = 0; i < 4001; ++i) {
    const double a = trace_now();
    const double b = trace_now();
    d.push_back(b - a);
  }
  std::nth_element(d.begin(), d.begin() + 2000, d.end());
  return d[2000];
}

double TimedErasure::erasure_probability(
    const thinair::channel::LinkContext& link) const {
  if (counts_.draws++ % kSampleEvery != 0)
    return inner_.erasure_probability(link);
  const double t0 = trace_now();
  const double p = inner_.erasure_probability(link);
  const double dt = std::max(trace_now() - t0 - overhead_, 0.0);
  ++counts_.sampled;
  counts_.sampled_s += dt;
  if (tracer_ != nullptr)
    tracer_->add_external(dt * static_cast<double>(kSampleEvery));
  return p;
}

}  // namespace thinbench
