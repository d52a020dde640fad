// The lattice-walker workload — the first algorithm registered for a
// non-home-nest environment backend (env/lattice.hpp), wired purely
// through the registry-v2 API with zero engine edits beyond the backend
// seam itself.
//
// A walker is the degenerate decision kernel of a first-passage
// experiment: search() (one persistent-walk step — ALL randomness lives
// in the environment) until the target site is underfoot, then commit to
// pseudo-nest 1 and idle. Convergence of a walker colony is therefore
// "a (1 - tolerance) fraction of the colony has reached the target",
// and RunResult::first_passage carries the per-ant hitting times for
// analysis::first_passage_summary.
//
// Because walkers draw no RNG of their own, the packed engine needs no
// per-ant lanes at all: WalkerPack is a stateless shell that exists so
// engine selection (a spec with a pack runs packed), reset, and spec
// plumbing treat the algorithm like any other packed one, while the
// Simulation driver runs rounds straight off the backend's reached lanes
// (see Simulation::step_lattice_packed).
#ifndef HH_CORE_WALKER_ANT_HPP
#define HH_CORE_WALKER_ANT_HPP

#include <cstdint>

#include "core/ant.hpp"
#include "core/ant_pack.hpp"
#include "util/contracts.hpp"

namespace hh::core {

class AlgorithmRegistry;

/// One lattice walker (scalar engine). Draws no RNG: the walk itself is
/// environment randomness, which is what makes scalar/packed equivalence
/// trivial for this algorithm.
class WalkerAnt final : public Ant {
 public:
  /// `target` is the lattice site whose first passage ends the walk
  /// (env::lattice_target_site of the scenario's LatticeConfig).
  explicit WalkerAnt(env::NestId target) : target_(target) {}

  [[nodiscard]] env::Action decide(std::uint32_t /*round*/) override {
    return reached_ ? env::Action::idle() : env::Action::search();
  }
  void observe(const env::Outcome& outcome) override {
    if (outcome.nest == target_) reached_ = true;
  }
  /// Pseudo-nest 1 = "reached the target"; kHomeNest = still walking.
  [[nodiscard]] env::NestId committed_nest() const override {
    return reached_ ? env::NestId{1} : env::kHomeNest;
  }
  [[nodiscard]] std::string_view name() const override {
    return "lattice-walker";
  }

 private:
  env::NestId target_;
  bool reached_ = false;
};

/// The packed walker colony: a stateless AntPack shell (no per-ant lanes
/// beyond the base's commitment bookkeeping, no round kernel — the
/// lattice driver reads the backend's reached lanes directly). It
/// exists so packed()/reset()/engine selection work through the standard
/// spec machinery.
class WalkerPack final : public AntPack {
 public:
  WalkerPack(std::uint32_t num_ants, std::uint64_t colony_seed)
      : AntPack(num_ants, 1) {
    reset(colony_seed);
  }

  void do_reset(std::uint64_t /*colony_seed*/) override {
    reset_commitments();
  }
  /// Never called: the lattice driver bypasses the home-nest kernel.
  void observe_decide(const env::Environment& /*env*/, Acting /*acting*/,
                      std::span<env::MaskedOp> /*op*/,
                      std::span<std::uint8_t> /*active*/,
                      std::span<env::NestId> /*targets*/) override {
    HH_ASSERT(false);
  }
};

/// The stable registry name of the workload.
inline constexpr std::string_view kLatticeWalkerAlgorithmName =
    "lattice-walker";

/// Register the walker's AlgorithmSpec: the lattice world
/// (AlgorithmSpec::env_backend), a pack, kCommitment convergence. Partial
/// synchrony runs on both engines (sleepers just pause their walk); the
/// pairing model is irrelevant, since no pairing happens; faults and
/// noise are refused off the home nest. Called once by the registry's
/// built-in bootstrap.
void register_lattice_walker_algorithm(AlgorithmRegistry& registry);

}  // namespace hh::core

#endif  // HH_CORE_WALKER_ANT_HPP
