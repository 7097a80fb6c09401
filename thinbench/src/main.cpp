// thinbench — the repository benchmark's measuring program.
//
//   thinbench <churn|sweep-fig1|sweep-headline|served>
//             [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// Runs one workload and prints one JSON object on stdout: the metrics
// (end-to-end with --trace 0, per-layer with --trace 1), the output
// checks and their details. Spans of a traced run go to DIR. Exits 1 when
// any output check fails. run.py builds this program, adds the machine
// fingerprint and prints the benchmark's result line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "gf/kernels.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: thinbench <churn|sweep-fig1|sweep-headline|served> "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace thinbench;
  if (argc < 2) return usage();
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed")
      opt.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds")
      opt.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace")
      opt.trace = std::string(value) == "1";
    else if (flag == "--out-dir")
      opt.out_dir = value;
    else
      return usage();
  }
  if ((argc - 2) % 2 != 0 || !(opt.seconds > 0.0)) return usage();

  Report report;
  try {
    if (opt.workload == "churn")
      run_churn(opt, report);
    else if (opt.workload == "sweep-fig1" || opt.workload == "sweep-headline")
      run_sweep(opt, report);
    else if (opt.workload == "served")
      run_served(opt, report);
    else
      return usage();
  } catch (const std::exception& e) {
    report.check("no_exception", false, e.what());
  }
  if (!report.has("peak_rss_mb")) report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.info("gf_kernel", thinair::gf::active_kernel().name);
  const std::string json = report.to_json(opt);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.all_checks_passed() ? 0 : 1;
}
