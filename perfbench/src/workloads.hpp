// The benchmark's named workloads (BENCHMARK.json lists them;
// perfbench/layers.json says why each was chosen and which layers it
// stresses).
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>

#include "anthill.hpp"
#include "common.hpp"

namespace perfbench {

/// A serial closed-loop colony workload.
struct ColonySpec {
  const char* name;
  const char* algorithm;
  std::uint32_t n;
  std::uint32_t k;  ///< k/2 good nests of quality 1, k/2 bad of quality 0
  hh::env::PairingKind pairing;
  /// Rerun every this-many-th trial on the scalar engine and compare
  /// field by field.
  std::size_t scalar_check_every;
};

inline constexpr ColonySpec kOptimalCounter4k{
    "optimal-counter-4k", "optimal", 4096, 8, hh::env::PairingKind::kCounter, 16};

Report run_colony(const Options& opt, const ColonySpec& spec);

/// The served-sweep workload: an in-process service::Server driven by one
/// Client connection in a closed loop of cold + warm sweep jobs.
Report run_served(const Options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
