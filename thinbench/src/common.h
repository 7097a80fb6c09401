#pragma once
// Shared plumbing of the thinbench workloads: clocks, order statistics
// and the report every workload fills in and main() prints as one JSON
// object on stdout (run.py turns it into the benchmark's result line).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace thinbench {

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s();
/// CPU time consumed by the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median, quartiles and tail of a sample. Percentiles interpolate
/// linearly between order statistics (numpy's default rule).
struct Dist {
  std::size_t n = 0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
};
[[nodiscard]] Dist summarize(std::vector<double> values);
/// Percentile q in [0, 1] of an ascending-sorted sample (0 when empty).
template <typename T>
[[nodiscard]] double percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) +
         (static_cast<double>(sorted[hi]) - static_cast<double>(sorted[lo])) *
             frac;
}

/// Per-workload knobs from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// What one run measured. Metric names follow the benchmark's README;
/// `absent` holds a reason for each per-layer metric the workload cannot
/// produce (it is then reported as 0).
class Report {
 public:
  /// A single measured value with its unit.
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  /// A metric reported as the median of `d`, carrying its quartiles and
  /// sample count.
  void set_dist(const std::string& name, const Dist& d, const std::string& unit,
                double scale = 1.0);
  void absent(const std::string& name, const std::string& why);
  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  /// Record an output check; any failed check fails the run.
  void check(const std::string& name, bool ok, const std::string& detail);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool all_checks_passed() const;
  [[nodiscard]] std::string to_json(const Options& opt) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    double p25 = 0.0, p75 = 0.0;
    std::size_t n = 1;
  };
  struct Check {
    bool ok = false;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> absent_;
  std::map<std::string, Check> checks_;
  std::map<std::string, std::string> info_;
};

/// Write `text` to `path` (creating the parent directory); false on error.
bool write_file(const std::string& path, const std::string& text);

}  // namespace thinbench
