// anthill — umbrella header for the public API.
//
// A C++20 library reproducing "Distributed House-Hunting in Ant Colonies"
// (Ghaffari, Musco, Radeva, Lynch; PODC 2015): the synchronous ant-colony
// model of Section 2, the optimal O(log n) algorithm of Section 4, the
// simple O(k log n) algorithm of Section 5, the Section 3 lower-bound
// experiment, and the Section 6 extensions (noise, faults, partial
// synchrony, boosted rates, non-binary qualities) plus baselines.
//
// Quick start — one simulation:
//
//   #include "anthill.hpp"
//
//   hh::core::SimulationConfig cfg;
//   cfg.num_ants = 256;
//   cfg.qualities = {1.0, 0.0, 1.0, 0.0};   // nests n1..n4
//   cfg.seed = 42;
//   hh::core::Simulation sim(cfg, hh::core::AlgorithmKind::kSimple);
//   hh::core::RunResult result = sim.run();
//   // result.winner is a quality-1 nest; result.rounds = O(k log n) whp.
//
// Quick start — an experiment sweep (the theorems are with-high-probability
// statements, so the real workload is thousands of trials per condition):
//
//   auto spec = hh::analysis::SweepSpec("crossover")
//                   .algorithms({hh::core::AlgorithmKind::kSimple,
//                                hh::core::AlgorithmKind::kOptimal})
//                   .colony_sizes({1u << 10, 1u << 14})
//                   .nest_counts({2, 8, 32});
//   hh::analysis::Runner runner;  // std::thread pool, all cores
//   auto batch = runner.run(spec, /*trials=*/200, /*base_seed=*/42);
//   std::cout << batch.tidy_table().render();
//   // bit-identical results at any thread count: per-trial seeds are
//   // derived from (base_seed, scenario index, trial index).
//
// Layering (lower layers never include higher ones):
//   util/      rng, stats, fits, tables, plots, contracts
//   env/       the Section 2 model: nests, actions, pairing, environment
//   core/      the algorithms, colonies, simulation driver, lower bound,
//              and the string-keyed algorithm registry (registry.hpp)
//   analysis/  scenarios + sweeps (scenario.hpp), the parallel batch
//              runner (runner.hpp), aggregation, and report emission
//   service/   the resident sweep daemon (anthill-serve), its NDJSON
//              protocol, and the streaming client
#ifndef HH_ANTHILL_HPP
#define HH_ANTHILL_HPP

#include "analysis/cli.hpp"
#include "analysis/experiment.hpp"
#include "analysis/manifest.hpp"
#include "analysis/metrics.hpp"
#include "analysis/report.hpp"
#include "analysis/result_store.hpp"
#include "analysis/runner.hpp"
#include "analysis/scenario.hpp"
#include "analysis/spec.hpp"
#include "core/ant.hpp"
#include "core/ant_pack.hpp"
#include "core/colony.hpp"
#include "core/convergence.hpp"
#include "core/idle_search_ant.hpp"
#include "core/optimal_ant.hpp"
#include "core/quality_aware_ant.hpp"
#include "core/quorum_ant.hpp"
#include "core/rate_boosted_ant.hpp"
#include "core/registry.hpp"
#include "core/rumor_spread.hpp"
#include "core/simple_ant.hpp"
#include "core/simulation.hpp"
#include "core/uniform_recruit_ant.hpp"
#include "core/walker_ant.hpp"
#include "env/action.hpp"
#include "env/backend.hpp"
#include "env/environment.hpp"
#include "env/faults.hpp"
#include "env/lattice.hpp"
#include "env/nest.hpp"
#include "env/observation.hpp"
#include "env/pairing.hpp"
#include "env/scheduler.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/ascii_plot.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/fit.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#endif  // HH_ANTHILL_HPP
