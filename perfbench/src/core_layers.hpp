// The traced core/env view shared by every workload: a trial driven round
// by round through the public Simulation API with a span around each
// reset and step, RoundStats accumulated per round, steady-state
// allocations counted; then the per-layer core.* / env.* metrics, with the
// isolated pairing and home-nest round probes at the workload's own size
// and op mix.
#ifndef PERFBENCH_CORE_LAYERS_HPP
#define PERFBENCH_CORE_LAYERS_HPP

#include <cstdint>
#include <memory>

#include "anthill.hpp"
#include "common.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {

/// The RunResult fields a trial is checked on.
struct Outcome {
  bool converged = false;
  std::uint32_t rounds = 0;
  std::uint32_t rounds_executed = 0;
  hh::env::NestId winner = 0;
  double winner_quality = 0.0;
  std::uint64_t recruitments = 0;
  std::uint64_t tandem_runs = 0;
  std::uint64_t transports = 0;
  hh::core::EngineKind engine = hh::core::EngineKind::kAuto;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const hh::core::RunResult& r);

/// RoundStats sums over the traced rounds of one RoundShape.
struct ShapeTally {
  double rounds = 0, ant_rounds = 0;
  double searches = 0, gos = 0, recruits = 0, active = 0;
};

/// Sums over traced rounds and trials (ant-weighted where it matters, so
/// mixed colony sizes aggregate correctly).
struct CoreTally {
  double ant_rounds = 0;   ///< sum of n over executed rounds
  double steps = 0;
  double step_ns = 0;
  double trials = 0;
  double packed_trials = 0;
  double ctor_ns = 0, ctor_ants = 0;
  double reset_ns = 0, reset_ants = 0;
  double successes = 0;
  double steady_steps = 0, steady_allocs = 0;
  ShapeTally shapes[kRoundShapes];
};

/// make_simulation under a "core.ctor" span.
std::unique_ptr<hh::core::Simulation> traced_build(
    const hh::analysis::Scenario& scenario, std::uint64_t seed, Tracer& tracer,
    std::int32_t parent, std::uint64_t key, CoreTally& tally);

/// One trial: reset (rebuild if the engine cannot) under "core.reset", then
/// the run() loop (converged()/round()/max_rounds()) with a "core.step" span
/// per round, then run() for the result (it returns at once).
Outcome traced_trial(std::unique_ptr<hh::core::Simulation>& sim,
                     const hh::analysis::Scenario& scenario, std::uint64_t seed,
                     Tracer& tracer, std::int32_t parent, std::uint64_t key,
                     CoreTally& tally);

/// Where the env probes run: the workload's colony size, nest count and
/// pairing model. Each round shape the trials took is probed at this n
/// with the op mix the traced rounds of that shape had, and weighted by
/// its share of the traced rounds.
struct ProbeShape {
  std::uint32_t n;
  std::uint32_t k;
  hh::env::PairingKind pairing;
  std::uint64_t seed;
};

/// Add every core.* and env.* metric except env.lattice_ns_per_ant and
/// print the step = env + pairing + unaccounted split.
void add_core_env_metrics(const CoreTally& tally, const ProbeShape& shape,
                          Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_LAYERS_HPP
