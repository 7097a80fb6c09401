#pragma once
// In-memory span recorder for the traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into the
// public functions of each thinair module (src/ is not instrumented). A
// span has a kind (which fixes its name and layer), a start, an end, its
// parent span and the id of the unit of work it belongs to (a session or
// a sweep case). Spans stay in memory and are written out once, at exit.
//
// Self time of a span = its duration minus the durations of its direct
// children minus any "external" time attributed to it — the sampled
// channel draws a TimedErasure measures while the span is open — minus
// the recorder's own cost of opening and closing each direct child,
// calibrated once per Tracer (otherwise the bookkeeping of many small
// child spans would read as unattributed time in their parent).

#include <cstdint>
#include <string>
#include <vector>

#include "channel/erasure.h"

namespace thinbench {

/// The span clock, in seconds: the invariant TSC scaled against
/// steady_clock once per process on x86-64 (a read costs a few ns instead
/// of a vDSO clock_gettime), steady_clock elsewhere.
[[nodiscard]] double trace_now();

enum class Layer : std::uint8_t {
  kGlue,    // benchmark glue between layer calls (unattributed time)
  kChannel,
  kNet,
  kCore,
  kGf,
  kAnalysis,
  kPacket,
  kRuntime,
  kTestbed,
  kNetd,
};
inline constexpr std::size_t kLayerCount = 10;
[[nodiscard]] const char* layer_name(Layer layer);

/// Every span the traced replays record.
enum class Kind : std::uint8_t {
  kSession,        // glue: one protocol session (root of a churn unit)
  kCase,           // glue: one sweep case (root of a sweep unit)
  kRound,          // glue: one protocol round
  kExperiment,     // testbed: placement -> medium set-up (run_experiment)
  kChannelBuild,   // channel: testbed::build_channel
  kMedium,         // net: SimMedium construction + attach, or teardown
  kOpenRound,      // net: core::open_round (x broadcast + reports)
  kEstimator,      // core: core::build_estimator
  kPhase1,         // core: core::run_phase1
  kPhase2Plan,     // core: core::plan_phase2
  kUnicastAssign,  // core: the unicast baseline's pad assignment
  kSerialize,      // packet: packet::encode_into / encode
  kReliable,       // net: net::reliable_broadcast / reliable_unicast
  kEncode,         // gf: all_y_contents / make_z_payloads / make_s_payloads
                   //     (Alice) and the unicast pad XORs
  kDecode,         // gf: reconstruct_y / recover_all_y / make_s_payloads
                   //     (every receiver) and the unicast pad strip
  kSecretRows,     // gf: YPool::rows + C*G (the secret's x-space rows)
  kEveView,        // analysis: EveView construction + observations
  kLeakage,        // analysis: analysis::compute_leakage
  kNodeSession,    // netd: a NodeSession call (client side)
  kUdpSend,        // netd: UdpSocket::send_to
  kUdpRecv,        // netd: UdpSocket::recv_from
  kPoll,           // netd: the client's readiness wait (ppoll)
  kArenaReset,     // packet: PayloadArena::reset at the round boundary
  kEpilogue,       // core: round outcome assembly + release of round state
  kPoolAcquire,    // runtime: ObjectPool / ArenaPool acquire or release
  kClientLoop,     // glue: the served client's event loop (one rate step)
};
inline constexpr std::size_t kKindCount = 26;
[[nodiscard]] const char* kind_name(Kind kind);
[[nodiscard]] Layer kind_layer(Kind kind);

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    Kind kind = Kind::kSession;
    std::uint32_t parent = kNoParent;
    std::uint64_t unit = 0;
    double start = 0.0;
    double end = 0.0;
    double child = 0.0;     // summed durations of direct children
    double external = 0.0;  // sampled channel-draw time inside this span
    std::uint32_t children = 0;
  };

  /// Calibrates the per-child bookkeeping cost on construction.
  Tracer();

  /// Pre-allocate and pre-fault room for `spans` spans, so page faults on
  /// first touch do not land inside the traced run.
  void reserve(std::size_t spans) {
    spans_.resize(spans);
    spans_.clear();
  }

  /// True while `spans` more spans fit without growing the storage (a
  /// reallocation mid-run would stall inside some span).
  [[nodiscard]] bool has_room(std::size_t spans) const {
    return spans_.capacity() - spans_.size() >= spans;
  }

  /// Open a span as a child of the innermost open one.
  std::uint32_t open(Kind kind, std::uint64_t unit);
  /// Close the innermost open span (which must be `index`).
  void close(std::uint32_t index);
  /// Attribute externally measured time (sampled channel draws) to the
  /// innermost open span.
  void add_external(double seconds);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double self_time(const Span& s) const {
    return (s.end - s.start) - s.child - s.external -
           static_cast<double>(s.children) * child_cost_s_;
  }
  /// Calibrated cost one direct child's open + close adds to its parent.
  [[nodiscard]] double child_cost_s() const { return child_cost_s_; }

  /// Per-kind totals over all closed spans.
  struct Totals {
    double total_s[kKindCount] = {};
    std::uint64_t count[kKindCount] = {};
    double external_s = 0.0;  // all sampled channel time
    double layer_self_s[kLayerCount] = {};
    double root_s = 0.0;  // summed duration of parentless spans
    double bookkeeping_s = 0.0;  // calibrated recorder cost, all spans
  };
  [[nodiscard]] Totals totals() const;

  /// All spans as CSV (kind,layer,unit,parent,start_ns,end_ns,self_ns),
  /// times relative to the first span.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  double child_cost_s_ = 0.0;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, Kind kind, std::uint64_t unit)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(kind, unit) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// A span opened late and closed on destruction. Declared first in a
/// function and begun before its last statements, it covers them plus the
/// destruction of every local declared after it.
class DeferredScope {
 public:
  DeferredScope(Tracer* tracer, Kind kind, std::uint64_t unit)
      : tracer_(tracer), kind_(kind), unit_(unit) {}
  void begin() {
    if (tracer_ != nullptr && !open_) {
      index_ = tracer_->open(kind_, unit_);
      open_ = true;
    }
  }
  ~DeferredScope() {
    if (open_) tracer_->close(index_);
  }
  DeferredScope(const DeferredScope&) = delete;
  DeferredScope& operator=(const DeferredScope&) = delete;

 private:
  Tracer* tracer_;
  Kind kind_;
  std::uint64_t unit_;
  std::uint32_t index_ = 0;
  bool open_ = false;
};

/// Median cost of one trace_now() read as seen inside a timed interval,
/// subtracted from sampled draw timings.
[[nodiscard]] double clock_overhead_s();

/// Channel draws seen by TimedErasure decorators.
struct DrawCounts {
  std::uint64_t draws = 0;    // every erasure_probability call
  std::uint64_t sampled = 0;  // the timed ones
  double sampled_s = 0.0;     // their summed time
};

/// Timing decorator over a channel::ErasureModel: counts every draw and
/// times one in kSampleEvery, attributing the extrapolated time to the
/// tracer's innermost open span (so channel work is carved out of the net
/// spans that trigger it). Probabilities pass through unchanged, so the
/// medium's RNG stream — and every output byte — is unaffected.
class TimedErasure final : public thinair::channel::ErasureModel {
 public:
  static constexpr std::uint64_t kSampleEvery = 8;

  /// `inner` and `counts` must outlive the decorator.
  TimedErasure(const thinair::channel::ErasureModel& inner, Tracer* tracer,
               double clock_overhead, DrawCounts& counts)
      : inner_(inner), tracer_(tracer), overhead_(clock_overhead),
        counts_(counts) {}

  [[nodiscard]] double erasure_probability(
      const thinair::channel::LinkContext& link) const override;

 private:
  const thinair::channel::ErasureModel& inner_;
  Tracer* tracer_;
  double overhead_;
  DrawCounts& counts_;
};

}  // namespace thinbench
