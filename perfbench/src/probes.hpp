// Isolated layer probes: one library call timed in a tight loop at a
// workload's own size and mix, each with its heap-allocation count per
// call (the repository's counting allocator, tests/counting_alloc.hpp,
// linked into the traced binary only).
#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "anthill.hpp"

namespace perfbench {

/// Whether this binary counts allocations: perfbench-traced links the
/// counting allocator (src/alloc/counting.cpp), perfbench keeps the normal
/// one (src/alloc/plain.cpp) and serves untraced runs only.
extern const bool kCountsAllocations;

/// Global-new allocations so far in this process (always 0 without the
/// counting allocator).
std::uint64_t allocations();

struct ProbeResult {
  double ns_per_call = 0.0;  ///< median over timed batches
  double allocs_per_call = 0.0;
};

/// The per-ant-round operation mix of a workload, from RoundStats.
struct OpMix {
  double search = 0.0;
  double go = 0.0;
  double recruit = 0.0;      ///< active + passive recruit calls
  double active = 0.0;       ///< share of recruit calls that are active
};

/// PairingModel::pair_active over m slots, `active_share` of them active,
/// keyed like the engine's per-round call.
ProbeResult probe_pairing(hh::env::PairingKind kind, std::uint32_t m,
                          double active_share, std::uint64_t seed);

/// Round shapes by op mix: colony-uniform rounds (one op for every ant)
/// and mixed rounds.
enum class RoundShape : std::uint8_t { kAllSearch, kAllGo, kAllRecruit, kMixed };
inline constexpr int kRoundShapes = 4;
const char* shape_name(RoundShape shape);

/// One HomeNestBackend masked quiet round over n ants with `k` binary
/// nests: constant op lanes for a uniform `shape`, ops drawn per `mix` for
/// kMixed. Targets are legalised by a first all-search round (as
/// BM_EnvironmentRound does); recruiters are active with probability
/// mix.active. Returns the whole round's time; `recruit_slots` receives
/// the round's recruit-call count.
ProbeResult probe_env_round(hh::env::PairingKind kind, std::uint32_t n,
                            std::uint32_t k, RoundShape shape, const OpMix& mix,
                            std::uint64_t seed, std::uint32_t& recruit_slots);

/// One LatticeBackend all-search masked quiet round.
ProbeResult probe_lattice_round(std::uint32_t n,
                                const hh::env::LatticeConfig& config,
                                std::uint64_t seed);

/// ResultStore::find over every key (time per lookup).
ProbeResult probe_store_find(const hh::analysis::ResultStore& store,
                             const std::vector<hh::analysis::TrialKey>& keys);

/// service::parse_event over recorded event lines (time per line).
ProbeResult probe_parse_event(const std::vector<std::string>& lines);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP
