#include "common.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace thinbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's footprint.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  std::fclose(f);
  return kib / 1024.0;
}

Dist summarize(std::vector<double> values) {
  Dist d;
  d.n = values.size();
  if (values.empty()) return d;
  std::sort(values.begin(), values.end());
  d.p25 = percentile(values, 0.25);
  d.p50 = percentile(values, 0.50);
  d.p75 = percentile(values, 0.75);
  d.p99 = percentile(values, 0.99);
  return d;
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_[name] = Metric{value, unit, value, value, samples};
}

void Report::set_dist(const std::string& name, const Dist& d,
                      const std::string& unit, double scale) {
  metrics_[name] =
      Metric{d.p50 * scale, unit, d.p25 * scale, d.p75 * scale, d.n};
}

void Report::absent(const std::string& name, const std::string& why) {
  absent_[name] = why;
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_[name] = Check{ok, detail};
}

void Report::info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

void Report::info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  info_[key] = buf;
}

bool Report::all_checks_passed() const {
  for (const auto& [name, c] : checks_)
    if (!c.ok) return false;
  return true;
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::to_json(const Options& opt) const {
  std::string s = "{\"workload\":" + quote(opt.workload) +
                  ",\"seed\":" + std::to_string(opt.seed) +
                  ",\"trace\":" + (opt.trace ? "1" : "0") +
                  ",\"attempted\":" + std::to_string(attempted) +
                  ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) s += ',';
    first = false;
    s += quote(name) + ":{\"value\":" + number(m.value) +
         ",\"unit\":" + quote(m.unit) + ",\"p25\":" + number(m.p25) +
         ",\"p75\":" + number(m.p75) + ",\"n\":" + std::to_string(m.n) + "}";
  }
  s += "},\"absent\":{";
  first = true;
  for (const auto& [name, why] : absent_) {
    if (!first) s += ',';
    first = false;
    s += quote(name) + ":" + quote(why);
  }
  s += "},\"checks\":{";
  first = true;
  for (const auto& [name, c] : checks_) {
    if (!first) s += ',';
    first = false;
    s += quote(name) + ":{\"ok\":" + (c.ok ? "true" : "false") +
         ",\"detail\":" + quote(c.detail) + "}";
  }
  s += "},\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    if (!first) s += ',';
    first = false;
    s += quote(key) + ":" + quote(value);
  }
  return s + "}}";
}

bool write_file(const std::string& path, const std::string& text) {
  const std::size_t slash = path.rfind('/');
  if (slash != std::string::npos)
    ::mkdir(path.substr(0, slash).c_str(), 0755);  // EEXIST is fine
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace thinbench
