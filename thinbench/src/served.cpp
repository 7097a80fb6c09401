// Workload `served`: thinaird (netd::Daemon) on its own thread over the
// loopback interface, driven open-loop by one client event-loop thread.
//
// Sessions are 2-terminal key agreements (N = 12 x-packets of 16 B, hub
// erasure probability 0.2, one round). They arrive as a seeded Poisson
// process; each is timed from its *due* arrival time until both
// terminals hold their key. The client drives both terminals' sans-io
// netd::NodeSession state machines over exactly two UDP sockets — one
// per node id, shared by every session — and routes each datagram by the
// session id in its frame header. The run steps through a fixed ladder
// of offered rates.

#include <poll.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "channel/rng.h"
#include "netd/daemon.h"
#include "netd/hub.h"
#include "netd/node_session.h"
#include "netd/udp.h"
#include "runtime/seed.h"
#include "workloads.h"

namespace thinbench {

namespace netd = thinair::netd;
namespace rt = thinair::runtime;

namespace {

constexpr std::size_t kPackets = 12;
constexpr std::size_t kPayload = 16;
constexpr double kLossP = 0.2;
constexpr double kTtkLimitMs = 20.0;  // latency limit on ttk p99
constexpr double kLightRate = 1000.0;
constexpr double kHighRate = 1500.0;  // ~60% of capacity on a 4-core host
/// Rates above the high one, tried in order until one misses the limit.
constexpr double kLadder[] = {2000.0, 2250.0, 2500.0, 2750.0,
                              3000.0, 3500.0, 4000.0};
constexpr double kLagLimitMs = 2.0;   // generator lag p99 beyond this: invalid
constexpr double kCpuLimit = 0.9;     // generator busier than this: invalid
constexpr double kTickS = 0.01;       // NodeSession timer granularity
constexpr double kDrainS = 3.0;       // grace after the last arrival
constexpr int kSetupReps = 5;
constexpr double kSliceS = 0.5;  // light/high loads are measured in slices
constexpr int kTries = 6;         // slice tries per slice needed
constexpr double kWarmSessions = 128.0;  // set-up burst that sizes the pools
constexpr double kWarmRate = 20000.0;  // tries for a light/high step with a valid generator

netd::HubConfig hub_config(std::uint64_t seed) {
  netd::HubConfig hc;
  hc.loss_p = kLossP;
  hc.seed = rt::derive_seed(seed, 0x5e57ed);
  hc.idle_timeout_s = 60.0;  // no expiry within a run
  return hc;
}

netd::NodeConfig node_config(std::uint64_t seed, std::uint64_t session,
                             std::uint16_t node) {
  netd::NodeConfig nc;
  nc.session_id = session;
  nc.node = node;
  nc.members = 2;
  nc.x_packets_per_round = kPackets;
  nc.payload_bytes = kPayload;
  nc.rounds = 1;
  nc.payload_seed = rt::derive_seed(seed, session * 2 + node);
  nc.rto_s = 0.1;
  nc.probe_s = 0.25;
  nc.max_retries = 100;
  return nc;
}

/// The in-process simulation of one session: the same NodeSessions pumped
/// synchronously through a fresh SessionHub with the same config — no
/// sockets, no threads (the harness tests/daemon_e2e_test.cpp uses). The
/// hub's draws depend only on (seed, session id, frame order), so the key
/// must equal the live one. Accumulates hub time and datagram count.
struct SimResult {
  std::vector<std::uint8_t> secret;
  bool ok = false;
};
SimResult simulate(const netd::HubConfig& hc, std::uint64_t seed,
                   std::uint64_t session, double* hub_s,
                   std::uint64_t* datagrams) {
  netd::SessionHub hub(hc);
  std::unique_ptr<netd::NodeSession> owned[2] = {
      std::make_unique<netd::NodeSession>(node_config(seed, session, 0)),
      std::make_unique<netd::NodeSession>(node_config(seed, session, 1))};
  netd::NodeSession* nodes[2] = {owned[0].get(), owned[1].get()};
  double now = 0.0;
  for (auto* n : nodes) n->start(now);
  std::vector<std::uint8_t> dgram;
  std::vector<netd::Outgoing> out;
  for (int iter = 0; iter < 100000; ++iter) {
    bool any = false;
    for (auto* n : nodes) {
      while (n->poll_datagram(dgram)) {
        any = true;
        out.clear();
        const double t0 = trace_now();
        hub.on_datagram(dgram, now, out);
        if (hub_s != nullptr) *hub_s += trace_now() - t0;
        if (datagrams != nullptr) ++*datagrams;
        for (const netd::Outgoing& o : out)
          if (o.node < 2 && !nodes[o.node]->done())
            nodes[o.node]->on_datagram(o.datagram, now);
      }
    }
    if ((nodes[0]->done() && nodes[1]->done()) || nodes[0]->failed() ||
        nodes[1]->failed())
      break;
    if (!any) {
      now += 0.02;
      for (auto* n : nodes) n->on_tick(now);
    }
  }
  SimResult r;
  r.ok = nodes[0]->done() && nodes[1]->done() &&
         nodes[0]->secret() == nodes[1]->secret();
  r.secret = nodes[0]->secret();
  return r;
}

/// What one rate step measured.
struct Step {
  double rate = 0.0;
  std::uint64_t started = 0, completed = 0, failed = 0;
  std::vector<double> ttk_ms;  // failed sessions enter as +inf
  std::vector<double> lag_ms;
  std::size_t in_flight_max = 0;
  bool backlog_grew = false;
  double wall_s = 0.0, client_cpu_s = 0.0, daemon_cpu_s = 0.0;
  std::uint64_t timer_sends = 0;
  std::uint64_t datagrams_in = 0, relays = 0, nack_retx = 0;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> sampled;
  // ttk p50 / p90 of each slice folded in by absorb().
  std::vector<double> slice_p50, slice_p90;

  /// Fold in another slice measured at the same rate.
  void absorb(Step&& o) {
    std::vector<double> sorted = o.ttk_ms;
    std::sort(sorted.begin(), sorted.end());
    slice_p50.push_back(percentile(sorted, 0.50));
    slice_p90.push_back(percentile(sorted, 0.90));
    started += o.started;
    completed += o.completed;
    failed += o.failed;
    ttk_ms.insert(ttk_ms.end(), o.ttk_ms.begin(), o.ttk_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    in_flight_max = std::max(in_flight_max, o.in_flight_max);
    backlog_grew = backlog_grew || o.backlog_grew;
    wall_s += o.wall_s;
    client_cpu_s += o.client_cpu_s;
    daemon_cpu_s += o.daemon_cpu_s;
    timer_sends += o.timer_sends;
    datagrams_in += o.datagrams_in;
    relays += o.relays;
    nack_retx += o.nack_retx;
    for (auto& kv : o.sampled) sampled.push_back(std::move(kv));
  }

  [[nodiscard]] Dist ttk() const { return summarize(ttk_ms); }
  [[nodiscard]] double lag_p99_ms() const { return summarize(lag_ms).p99; }
  [[nodiscard]] double cpu_util() const {
    return wall_s > 0.0 ? client_cpu_s / wall_s : 0.0;
  }
  /// Sessions were offered, and the generator kept its schedule and had
  /// CPU to spare.
  [[nodiscard]] bool valid() const {
    return started > 0 && lag_p99_ms() <= kLagLimitMs && cpu_util() <= kCpuLimit;
  }
  /// Served: within the latency limit, no failure, no growing backlog.
  [[nodiscard]] bool sustained() const {
    return valid() && failed == 0 && !backlog_grew &&
           ttk().p99 <= kTtkLimitMs;
  }
};

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The daemon thread plus the client's two sockets.
class Rig {
 public:
  explicit Rig(std::uint64_t seed) : seed_(seed), hub_config_(hub_config(seed)) {
    netd::DaemonConfig dc;
    dc.hub = hub_config_;
    daemon_ = std::make_unique<netd::Daemon>(dc);
    thread_ = std::thread([this] {
      try {
        daemon_->run([this] { ready_.store(true); });
      } catch (...) {
        crashed_.store(true);
        ready_.store(true);
      }
    });
    while (!ready_.load()) std::this_thread::yield();
    try {
      if (crashed_.load()) throw std::runtime_error("daemon failed to start");
      pthread_getcpuclockid(thread_.native_handle(), &daemon_clock_);
      daemon_addr_ = netd::make_addr("127.0.0.1", daemon_->port());
      for (auto& s : sockets_) {
        s = netd::UdpSocket::bind("127.0.0.1", 0);
        const int buf = 4 << 20;  // best effort; the kernel caps it
        ::setsockopt(s.fd(), SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
        ::setsockopt(s.fd(), SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
      }
    } catch (...) {
      daemon_->stop();
      thread_.join();
      throw;
    }
  }
  ~Rig() {
    daemon_->stop();
    thread_.join();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] const netd::HubConfig& hub() const { return hub_config_; }
  [[nodiscard]] const netd::Daemon& daemon() const { return *daemon_; }

  /// Offer `rate` sessions/s for `window_s`, then drain. Every
  /// `sample_every`-th completed session's key is kept for the simulation
  /// check. Client calls are traced when `tracer` is set.
  Step run(double rate, double window_s, std::uint64_t step_seed,
           std::size_t sample_every, Tracer* tracer);

 private:
  struct Slot {
    std::uint64_t id = 0;
    double due = 0.0;
    double key_at[2] = {-1.0, -1.0};
    bool keyed = false;
    bool sample = false;
    std::unique_ptr<netd::NodeSession> node[2];
  };

  void start(Slot& s, std::uint64_t id, double due, double now);
  void flush(Slot& s, bool from_timer);
  /// Record key times; returns true when the slot can be released.
  bool progress(Slot& s, double now);
  void release(std::uint64_t id);
  void receive(int k, double now);

  std::uint64_t seed_;
  netd::HubConfig hub_config_;
  std::unique_ptr<netd::Daemon> daemon_;
  std::atomic<bool> ready_{false};
  std::atomic<bool> crashed_{false};
  std::thread thread_;  // declared after what it uses
  clockid_t daemon_clock_{};
  sockaddr_in daemon_addr_{};
  netd::UdpSocket sockets_[2];

  // Per-step state.
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Slot>> live_;
  std::vector<std::unique_ptr<Slot>> free_;
  std::vector<std::uint8_t> buf_;
  Tracer* tracer_ = nullptr;
  Step* step_ = nullptr;
};

void Rig::start(Slot& s, std::uint64_t id, double due, double now) {
  s.id = id;
  s.due = due;
  s.key_at[0] = s.key_at[1] = -1.0;
  s.keyed = false;
  for (std::uint16_t k = 0; k < 2; ++k) {
    const Scope sc(tracer_, Kind::kNodeSession, id);
    if (s.node[k] == nullptr)
      s.node[k] = std::make_unique<netd::NodeSession>(node_config(seed_, id, k));
    else
      s.node[k]->reset(node_config(seed_, id, k));
    s.node[k]->start(now);
  }
  flush(s, false);
}

void Rig::flush(Slot& s, bool from_timer) {
  for (int k = 0; k < 2; ++k) {
    for (;;) {
      {
        const Scope sc(tracer_, Kind::kNodeSession, s.id);
        if (!s.node[k]->poll_datagram(buf_)) break;
      }
      const Scope sc(tracer_, Kind::kUdpSend, s.id);
      (void)sockets_[k].send_to(daemon_addr_, buf_);
      if (from_timer) ++step_->timer_sends;
    }
  }
}

bool Rig::progress(Slot& s, double now) {
  for (int k = 0; k < 2; ++k) {
    const auto st = s.node[k]->state();
    if (s.key_at[k] < 0.0 && (st == netd::NodeSession::State::kClosing ||
                              st == netd::NodeSession::State::kDone))
      s.key_at[k] = now;
  }
  if (s.node[0]->failed() || s.node[1]->failed()) {
    ++step_->failed;  // keyed or not, the session did not close cleanly
    if (!s.keyed) step_->ttk_ms.push_back(std::numeric_limits<double>::infinity());
    return true;
  }
  if (!s.keyed && s.key_at[0] >= 0.0 && s.key_at[1] >= 0.0) {
    s.keyed = true;
    if (s.node[0]->secret() != s.node[1]->secret()) {
      ++step_->failed;
      step_->ttk_ms.push_back(std::numeric_limits<double>::infinity());
      return true;
    }
    ++step_->completed;
    step_->ttk_ms.push_back((std::max(s.key_at[0], s.key_at[1]) - s.due) * 1e3);
    if (s.sample) step_->sampled.emplace_back(s.id, s.node[0]->secret());
  }
  return s.node[0]->done() && s.node[1]->done();
}

void Rig::release(std::uint64_t id) {
  auto it = live_.find(id);
  free_.push_back(std::move(it->second));
  live_.erase(it);
}

void Rig::receive(int k, double now) {
  sockaddr_in from{};
  for (;;) {
    {
      const Scope sc(tracer_, Kind::kUdpRecv, 0);
      if (!sockets_[k].recv_from(buf_, from)) return;
    }
    // Frame header: magic(2) version type flags phase node(2), then the
    // little-endian u64 session id at offset 8 (netd/wire.h).
    if (buf_.size() < 16) continue;
    std::uint64_t id = 0;
    for (int b = 7; b >= 0; --b) id = (id << 8) | buf_[8 + static_cast<std::size_t>(b)];
    const auto it = live_.find(id);
    if (it == live_.end()) continue;  // a late datagram of a closed session
    Slot& s = *it->second;
    {
      const Scope sc(tracer_, Kind::kNodeSession, id);
      s.node[k]->on_datagram(buf_, now);
    }
    flush(s, false);
    if (progress(s, now)) release(id);
  }
}

Step Rig::run(double rate, double window_s, std::uint64_t step_seed,
              std::size_t sample_every, Tracer* tracer) {
  Step step;
  step.rate = rate;
  step_ = &step;
  tracer_ = tracer;

  // Seeded Poisson arrivals, as offsets from the step's start.
  std::vector<double> arrivals;
  {
    thinair::channel::Rng rng(step_seed);
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.next_double()) / rate;
      if (t >= window_s) break;
      arrivals.push_back(t);
    }
  }
  const netd::HubStats& hs = daemon_->hub().stats();
  const std::uint64_t dg0 = hs.datagrams_in.load(), rl0 = hs.frames_relayed.load(),
                      nk0 = hs.nack_retransmits.load();
  const double cpu0 = thread_cpu_s(), dcpu0 = clock_s(daemon_clock_);
  std::vector<std::pair<double, std::size_t>> backlog;  // (offset, in flight)

  std::optional<Scope> root;
  if (tracer != nullptr) root.emplace(tracer, Kind::kClientLoop, 0);
  const double t0 = now_s();
  double next_tick = t0 + kTickS;
  std::size_t next = 0;
  pollfd fds[2] = {{sockets_[0].fd(), POLLIN, 0}, {sockets_[1].fd(), POLLIN, 0}};
  for (;;) {
    double now = now_s();
    while (next < arrivals.size() && t0 + arrivals[next] <= now) {
      const double due = t0 + arrivals[next++];
      std::unique_ptr<Slot> slot;
      if (free_.empty()) {
        slot = std::make_unique<Slot>();
      } else {
        slot = std::move(free_.back());
        free_.pop_back();
      }
      const std::uint64_t id = next_id_++;
      slot->sample = sample_every != 0 && step.started % sample_every == 0;
      Slot& s = *slot;
      live_.emplace(id, std::move(slot));
      ++step.started;
      step.lag_ms.push_back((now - due) * 1e3);
      start(s, id, due, now);
      step.in_flight_max = std::max(step.in_flight_max, live_.size());
    }
    if (next == arrivals.size() && live_.empty()) break;
    if (now > t0 + window_s + kDrainS) break;

    double wait_s = kTickS;
    if (next < arrivals.size()) wait_s = std::min(wait_s, t0 + arrivals[next] - now);
    wait_s = std::clamp(std::min(wait_s, next_tick - now), 0.0, kTickS);
    const timespec ts{0, static_cast<long>(wait_s * 1e9)};
    int ready = 0;
    {
      const Scope sc(tracer_, Kind::kPoll, 0);
      ready = ::ppoll(fds, 2, &ts, nullptr);
    }
    now = now_s();
    if (ready > 0)
      for (int k = 0; k < 2; ++k)
        if ((fds[k].revents & POLLIN) != 0) receive(k, now);

    if (now >= next_tick) {
      next_tick = now + kTickS;
      if (now - t0 <= window_s) backlog.emplace_back(now - t0, live_.size());
      std::vector<std::uint64_t> ids;
      ids.reserve(live_.size());
      for (const auto& [id, slot] : live_) ids.push_back(id);
      for (const std::uint64_t id : ids) {
        Slot& s = *live_.at(id);
        for (int k = 0; k < 2; ++k) {
          const Scope sc(tracer_, Kind::kNodeSession, id);
          s.node[k]->on_tick(now);
        }
        flush(s, true);
        if (progress(s, now)) release(id);
      }
    }
  }
  step.wall_s = now_s() - t0;
  step.client_cpu_s = thread_cpu_s() - cpu0;
  step.daemon_cpu_s = clock_s(daemon_clock_) - dcpu0;
  step.datagrams_in = hs.datagrams_in.load() - dg0;
  step.relays = hs.frames_relayed.load() - rl0;
  step.nack_retx = hs.nack_retransmits.load() - nk0;

  // Unfinished sessions fail and miss every limit.
  for (auto& [id, slot] : live_) {
    (void)id;
    ++step.failed;
    step.ttk_ms.push_back(std::numeric_limits<double>::infinity());
    free_.push_back(std::move(slot));
  }
  live_.clear();

  // Backlog grows when the last quarter of the window holds clearly more
  // sessions in flight than the second quarter.
  double q2 = 0.0, q4 = 0.0;
  std::size_t n2 = 0, n4 = 0;
  for (const auto& [t, n] : backlog) {
    if (t >= window_s * 0.25 && t < window_s * 0.5) q2 += static_cast<double>(n), ++n2;
    if (t >= window_s * 0.75) q4 += static_cast<double>(n), ++n4;
  }
  if (n2 > 0 && n4 > 0)
    step.backlog_grew = q4 / static_cast<double>(n4) >
                        1.5 * (q2 / static_cast<double>(n2)) + 5.0;
  step_ = nullptr;
  tracer_ = nullptr;
  return step;
}

void report_step(Report& report, const std::string& tag, const Step& s) {
  const Dist d = s.ttk();
  report.info(tag + ".rate", s.rate);
  report.info(tag + ".started", static_cast<double>(s.started));
  report.info(tag + ".failed", static_cast<double>(s.failed));
  report.info(tag + ".ttk_p25_ms", d.p25);
  report.info(tag + ".ttk_p50_ms", d.p50);
  report.info(tag + ".ttk_p75_ms", d.p75);
  report.info(tag + ".ttk_p99_ms", d.p99);
  report.info(tag + ".lag_p99_ms", s.lag_p99_ms());
  report.info(tag + ".loadgen_cpu_util", s.cpu_util());
  report.info(tag + ".daemon_cpu_util", s.wall_s > 0 ? s.daemon_cpu_s / s.wall_s : 0.0);
  report.info(tag + ".in_flight_max", static_cast<double>(s.in_flight_max));
  report.info(tag + ".backlog_grew", s.backlog_grew ? 1.0 : 0.0);
  report.info(tag + ".sustained", s.sustained() ? 1.0 : 0.0);
}

/// Live keys of sampled sessions against the in-process simulation.
void check_simulation(const Rig& rig, std::uint64_t seed,
                      const std::vector<Step>& steps, Report& report) {
  std::size_t checked = 0, differ = 0;
  for (const Step& s : steps)
    for (const auto& [id, secret] : s.sampled) {
      const SimResult sim = simulate(rig.hub(), seed, id, nullptr, nullptr);
      ++checked;
      if (!sim.ok || sim.secret != secret) ++differ;
    }
  report.failed += differ;
  report.check("served_keys_equal_simulation", differ == 0 && checked > 0,
               std::to_string(checked) + " sampled sessions simulated, " +
                   std::to_string(differ) + " differ");
}

void run_untraced(const Options& opt, Report& report) {
  // Set-up = daemon bind + its thread serving + the client's sockets +
  // a burst of kWarmSessions concurrent sessions that grows the hub's and
  // the client's session pools; tearing a rig down again (a stop waits
  // out the daemon's poll) is not part of it.
  std::unique_ptr<Rig> rig;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    rig.reset();
    const double t0 = now_s();
    rig = std::make_unique<Rig>(opt.seed);
    const Step warm = rig->run(kWarmRate, kWarmSessions / kWarmRate,
                               rt::derive_seed(opt.seed, 0x3a3a + i), 0, nullptr);
    setups.push_back(now_s() - t0);
    report.attempted += warm.started;
    report.failed += warm.failed;
  }
  report.set_dist("setup_s", summarize(setups), "s");

  // The light and high steps each get 30% of the run; the ladder above
  // them splits the rest.
  const double light_s = opt.seconds * 0.3;
  const double ladder_s = opt.seconds * 0.4 / static_cast<double>(std::size(kLadder));
  std::vector<Step> steps;
  std::uint64_t step_no = 0;
  const auto step_seed = [&] { return rt::derive_seed(opt.seed, 0x57e9 + step_no++); };
  // The light and high loads are measured in kSliceS slices. A slice
  // whose generator lagged or saturated is not a measurement: it is
  // discarded. A load needs light_s worth of valid slices within kTries
  // times as many tries. Short of that, the least-lagged discarded slices
  // fill the gap and the run is flagged invalid: its outputs are still
  // checked, but its timings are suspect.
  std::size_t discarded = 0;
  std::string discarded_why;  // lag p99 / generator CPU of each discarded slice
  bool enough = true;
  const auto measure = [&](double rate, std::size_t sample_every) {
    Step total;
    total.rate = rate;
    const int need = std::max(1, static_cast<int>(std::lround(light_s / kSliceS)));
    int valid = 0;
    std::vector<Step> rejected;
    for (int tries = 0; valid < need && tries < kTries * need; ++tries) {
      Step slice = rig->run(rate, kSliceS, step_seed(), sample_every, nullptr);
      if (slice.valid()) {
        ++valid;
        total.absorb(std::move(slice));
        continue;
      }
      ++discarded;
      discarded_why += std::to_string(slice.lag_p99_ms()).substr(0, 5) + "ms/" +
                       std::to_string(slice.cpu_util()).substr(0, 4) + " ";
      rejected.push_back(std::move(slice));
    }
    std::sort(rejected.begin(), rejected.end(), [](const Step& x, const Step& y) {
      return x.lag_p99_ms() < y.lag_p99_ms();
    });
    for (Step& slice : rejected) {
      if (valid < need) {
        enough = false;
        ++valid;
        total.absorb(std::move(slice));
      } else {  // unused, but its sessions were attempted all the same
        report.attempted += slice.started;
        report.failed += slice.failed;
      }
    }
    return total;
  };
  steps.push_back(measure(kLightRate, 100));
  steps.push_back(measure(kHighRate, 200));
  report.info("discarded_slices", static_cast<double>(discarded));
  report.info("discarded_slices.lag_cpu", discarded_why);
  // Memory at the two reference loads. The ladder's overload steps are
  // left out: the sessions they pile up in flight are what they probe, and
  // how far the ladder climbs varies from run to run.
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  double sustained_rate = 0.0;
  for (const Step& s : steps)
    if (s.sustained()) sustained_rate = std::max(sustained_rate, s.rate);
  if (steps[1].sustained())
    for (const double rate : kLadder) {
      steps.push_back(rig->run(rate, ladder_s, step_seed(), 0, nullptr));
      if (!steps.back().sustained()) break;
      sustained_rate = rate;
    }

  for (const Step& s : steps) {
    report.attempted += s.started;
    report.failed += s.failed;
  }
  const Step& light = steps[0];
  const Step& high = steps[1];
  report.info("measurement_valid", enough ? "yes" : "NO: too few valid slices");
  if (!enough)
    std::fprintf(stderr,
                 "served: WARNING: the generator lagged or saturated in too "
                 "many slices; this run's timings are suspect\n");
  report.check("served_keys_equal_and_complete", report.failed == 0,
               std::to_string(report.attempted) + " sessions, " +
                   std::to_string(report.failed) +
                   " failed, unfinished or with unequal keys");
  check_simulation(*rig, opt.seed, steps, report);

  const Dist l = light.ttk();
  // Gated: the median over slices of each slice's percentile, so a few
  // slices that a host stall hit do not move it. Pooled percentiles over
  // every kept slice are reported too.
  report.set_dist("ttk_p50_ms", summarize(light.slice_p50), "ms");
  report.set_dist("ttk_p90_ms", summarize(light.slice_p90), "ms");
  report.info("ttk_pooled_p50_ms", l.p50);
  report.set("ttk_p99_ms", l.p99, "ms", l.n);
  {
    std::vector<double> sorted = light.ttk_ms;
    std::sort(sorted.begin(), sorted.end());
    report.info("ttk_pooled_p90_ms", percentile(sorted, 0.90));
  }
  report.set("daemon_sessions_per_cpu_s",
             static_cast<double>(high.completed) / high.daemon_cpu_s, "1/s",
             high.completed);
  report.info("ttk_p25_ms", l.p25);
  report.info("ttk_p75_ms", l.p75);
  report.set("ttk_p99_ms_high", high.ttk().p99, "ms", high.ttk().n);
  report.set("sustained_sessions_per_s", sustained_rate, "1/s",
             steps.size());
  report.set("loadgen.lag_p99_ms", std::max(light.lag_p99_ms(), high.lag_p99_ms()),
             "ms");
  report.set("loadgen.cpu_util", std::max(light.cpu_util(), high.cpu_util()),
             "frac");
  for (std::size_t i = 0; i < steps.size(); ++i)
    report_step(report, "step" + std::to_string(i), steps[i]);
  report.info("ttk_limit_ms", kTtkLimitMs);
  report.info("transport", "loopback");
}

void run_traced(const Options& opt, Report& report) {
  Rig rig(opt.seed);
  const double step_s = opt.seconds * 0.35;
  // A: untraced at the high rate — daemon and generator figures, and the
  // client CPU baseline for the trace overhead.
  const Step a = rig.run(kHighRate, step_s, rt::derive_seed(opt.seed, 0xA), 0,
                         nullptr);
  // B: the same load with every client-side NodeSession / socket call
  // traced.
  Tracer tracer;
  tracer.reserve(static_cast<std::size_t>(kHighRate * step_s * 240));
  const Step b = rig.run(kHighRate, step_s, rt::derive_seed(opt.seed, 0xB), 0,
                         &tracer);
  report.attempted = a.started + b.started;
  report.failed = a.failed + b.failed;

  const double sessions_a = static_cast<double>(std::max<std::uint64_t>(a.completed, 1));
  const double sessions_b = static_cast<double>(std::max<std::uint64_t>(b.completed, 1));
  report.set("netd.daemon_cpu_util", a.daemon_cpu_s / a.wall_s, "frac");
  report.set("netd.daemon_cpu_us_per_session", a.daemon_cpu_s / sessions_a * 1e6,
             "us", a.completed);
  report.set("netd.datagrams_per_session",
             static_cast<double>(a.datagrams_in) / sessions_a, "count", a.completed);
  report.set("netd.relays_per_session", static_cast<double>(a.relays) / sessions_a,
             "count", a.completed);
  report.set("netd.retx_per_session",
             static_cast<double>(a.nack_retx + a.timer_sends) / sessions_a, "count",
             a.completed);
  report.set("netd.in_flight_max", static_cast<double>(a.in_flight_max), "count");
  report.set("netd.pool_hit_rate", rig.daemon().hub().session_pool_counters().hit_rate(),
             "frac");
  report.set("loadgen.lag_p99_ms", a.lag_p99_ms(), "ms", a.lag_ms.size());
  report.set("loadgen.cpu_util", a.cpu_util(), "frac");

  const Tracer::Totals t = tracer.totals();
  const auto k = [](Kind kind) { return static_cast<std::size_t>(kind); };
  report.set("netd.client_us_per_session",
             t.total_s[k(Kind::kNodeSession)] / sessions_b * 1e6, "us", b.completed);
  const double syscalls = static_cast<double>(
      t.count[k(Kind::kUdpSend)] + t.count[k(Kind::kUdpRecv)] + t.count[k(Kind::kPoll)]);
  report.set("netd.syscalls_per_session", syscalls / sessions_b, "count", b.completed);
  report.set("netd.syscall_us_per_session",
             (t.total_s[k(Kind::kUdpSend)] + t.total_s[k(Kind::kUdpRecv)]) /
                 sessions_b * 1e6,
             "us", b.completed);
  report.set("trace.unattributed_frac",
             t.root_s > 0 ? t.layer_self_s[static_cast<std::size_t>(Layer::kGlue)] / t.root_s
                          : 0.0,
             "frac");
  report.set("trace.overhead_frac",
             (b.client_cpu_s / sessions_b) / (a.client_cpu_s / sessions_a) - 1.0,
             "frac");
  report.info("trace.poll_wait_frac", t.total_s[k(Kind::kPoll)] / t.root_s);
  report_step(report, "untraced", a);
  report_step(report, "traced", b);

  // Sans-io replay of step A's sessions through an in-process hub: the
  // hub's cost per datagram without sockets or threads.
  double hub_s = 0.0;
  std::uint64_t datagrams = 0, checked = 0, sim_failed = 0;
  const double deadline = now_s() + opt.seconds * 0.2;
  for (std::uint64_t id = 1; id <= a.started && now_s() < deadline; ++id) {
    const SimResult r = simulate(rig.hub(), opt.seed, id, &hub_s, &datagrams);
    ++checked;
    if (!r.ok) ++sim_failed;
  }
  report.failed += sim_failed;
  report.set("netd.hub_us_per_datagram",
             datagrams > 0 ? hub_s / static_cast<double>(datagrams) * 1e6 : 0.0, "us",
             datagrams);
  report.check("served_traced_complete", a.failed + b.failed + sim_failed == 0,
               std::to_string(a.started + b.started) + " live sessions, " +
                   std::to_string(checked) + " simulated, " +
                   std::to_string(a.failed + b.failed + sim_failed) + " failed");

  static const char* const kInProcess[] = {
      "gf.encode_us_per_round",        "gf.decode_us_per_round",
      "gf.self_frac",                  "gf.bytes_per_round",
      "analysis.leakage_us_per_round", "analysis.self_frac",
      "packet.serialize_us_per_round", "channel.draws_per_round",
      "channel.draw_ns",               "channel.build_us_per_case",
      "channel.self_frac",             "core.estimator_us_per_round",
      "core.phase1_us_per_round",      "core.phase2_plan_us_per_round",
      "core.self_frac",                "net.transmits_per_round",
      "net.self_frac",                 "net.reliable_attempts_per_packet",
      "testbed.self_frac"};
  report_absent(report, kInProcess, std::size(kInProcess),
                "served times NodeSession calls as one netd span; protocol "
                "layers inside it are measured by the in-process workloads");
  static const char* const kRuntime[] = {
      "runtime.pool_acquire_ns", "runtime.pool_hit_rate", "packet.arena_capacity_kb",
      "runtime.worker_util",     "runtime.case_ms_p50",   "runtime.case_ms_p99",
      "runtime.sink_tail_ms",    "runtime.plan_ms"};
  report_absent(report, kRuntime, std::size(kRuntime),
                "served uses neither the sweep engine nor the session pools "
                "(the hub's own pool is netd.pool_hit_rate)");
  if (!write_file(opt.out_dir + "/served-spans.csv", tracer.to_csv()))
    report.info("spans_file", "not written");
}

}  // namespace

void run_served(const Options& opt, Report& report) {
  // Sub-millisecond arrival deadlines: ask for tight timer wake-ups on
  // the generator thread (default slack is 50 us).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (opt.trace)
    run_traced(opt, report);
  else
    run_untraced(opt, report);
}

}  // namespace thinbench
