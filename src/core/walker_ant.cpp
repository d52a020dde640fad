#include "core/walker_ant.hpp"

#include <memory>

#include "core/colony.hpp"
#include "core/registry.hpp"
#include "env/lattice.hpp"

namespace hh::core {

void register_lattice_walker_algorithm(AlgorithmRegistry& registry) {
  AlgorithmSpec spec;
  spec.name = std::string(kLatticeWalkerAlgorithmName);
  spec.summary =
      "persistent random walkers on the honeycomb lattice backend "
      "(fast/slow motility syndromes; first-passage workload)";
  spec.mode = ConvergenceMode::kCommitment;
  // The motility knobs live in SimulationConfig::lattice (world identity,
  // not algorithm params), so the param schema is empty.
  spec.env_backend = env::BackendKind::kLattice;
  spec.colony = [](const SimulationConfig& config, env::FaultPlan plan,
                   std::uint64_t colony_seed, const AlgorithmParams&) {
    const env::NestId target = env::lattice_target_site(config.lattice);
    const AntFactory factory = [target](env::AntId, util::Rng) {
      return std::make_unique<WalkerAnt>(target);
    };
    return make_colony(config.num_ants, factory, std::move(plan), colony_seed,
                       std::string(kLatticeWalkerAlgorithmName));
  };
  spec.pack = [](const SimulationConfig& config, std::uint64_t colony_seed,
                 const AlgorithmParams&, const env::FaultPlan* /*faults*/) {
    return std::make_unique<WalkerPack>(config.num_ants, colony_seed);
  };
  registry.add(std::move(spec));
}

}  // namespace hh::core
