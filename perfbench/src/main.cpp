// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Runs one named workload through the library's public API and prints a
// human-readable account followed, as the LAST line of stdout, by one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics of the
// layers the workload exercises. Untraced runs use this binary,
// traced runs perfbench-traced (same sources plus the counting allocator).
// perfbench/run.py builds both, checks the metrics against BENCHMARK.json
// and is the entry point to use.
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

// VmHWM rather than getrusage's ru_maxrss: Linux carries ru_maxrss across
// exec, so perfbench started from a larger parent (python3 run.py) would
// report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {

/// The CPU's brand string (cpuid), or "?".
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "?";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
#else
  return "?";
#endif
}

/// The machine and build the numbers came from.
void print_machine() {
  std::printf(
      "machine: nproc=%u cpu=\"%s\" L2=%ldK L3=%ldK compiler=\"%s\" build=%s\n",
      std::thread::hardware_concurrency(), cpu_model().c_str(),
      sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024, sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024,
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

void print_result(const Report& report) {
  std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : report.metrics) {
    std::printf("%-36s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu (failed_frac %.6f)\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              ratio(static_cast<double>(report.failed),
                    static_cast<double>(report.attempted)));
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench[-traced] --workload "
               "<optimal-counter-4k|served-sweep> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "perfbench runs --trace 0, perfbench-traced --trace 1\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--work-dir") opt.work_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0 || opt.trace != kCountsAllocations) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  print_machine();

  Report report;
  try {
    if (opt.workload == kOptimalCounter4k.name) {
      report = run_colony(opt, kOptimalCounter4k);
    } else if (opt.workload == "served-sweep") {
      report = run_served(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(report);
  return 0;
}
