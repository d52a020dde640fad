// Shared plumbing of perfbench: options, the metric report
// every workload fills in, and small statistics helpers.
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_since(Clock::time_point start) {
  return seconds_between(start, Clock::now()) * 1e3;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and trace files (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

/// One reported metric, in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main(): the attempted/failed output
/// check counts (the run is correct when none failed) and the metrics of
/// the requested mode (end-to-end untraced, per-layer traced).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record one output check; a failed one also prints why.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The p99 of a latency sample when at least ten samples lie beyond it
/// (n >= 1000), else 0 — a tail read off fewer samples is noise.
inline double p99_or_zero(const std::vector<double>& v) {
  return v.size() >= 1000 ? quantile(v, 0.99) : 0.0;
}

inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The reported set-up time of a run's set-up samples: their minimum. Each
/// set-up is a fraction of a millisecond of system calls, page faults and
/// thread starts, so on a shared host its median moves several-fold from
/// run to run; the fastest sample is the work itself, and it moves with
/// any work added to set-up.
inline double setup_statistic(const std::vector<double>& setup_s) {
  return setup_s.empty() ? 0.0 : *std::min_element(setup_s.begin(), setup_s.end());
}

inline void print_setup(const std::vector<double>& setup_s) {
  std::printf("  set-up over %zu samples: min (reported) %.6f s; p25 %.6f "
              "p50 %.6f p75 %.6f p90 %.6f s\n",
              setup_s.size(), setup_statistic(setup_s), quantile(setup_s, 0.25),
              median(setup_s), quantile(setup_s, 0.75), quantile(setup_s, 0.9));
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Hand freed heap pages back to the OS (malloc_trim), so that every
/// set-up repetition pays the page faults a fresh process would, whatever
/// heap layout the benchmark's own allocations left behind.
inline void release_free_memory() { malloc_trim(0); }

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
