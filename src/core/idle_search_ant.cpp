#include "core/idle_search_ant.hpp"

#include <memory>

#include "core/colony.hpp"
#include "core/registry.hpp"
#include "util/contracts.hpp"

namespace hh::core {

IdleSearchAnt::IdleSearchAnt(std::uint32_t num_ants, util::Rng rng,
                             double search_prob)
    : num_ants_(num_ants), rng_(rng), search_prob_(search_prob) {
  HH_EXPECTS(num_ants >= 1);
  HH_EXPECTS(search_prob >= 0.0 && search_prob <= 1.0);
}

env::Action IdleSearchAnt::decide(std::uint32_t /*round*/) {
  switch (phase_) {
    case Phase::kInit:
      return env::Action::search();
    case Phase::kRecruit: {
      if (active_) {
        scouting_ = false;
        const double p =
            static_cast<double>(count_) / static_cast<double>(num_ants_);
        return env::Action::recruit(rng_.bernoulli(p), nest_);
      }
      // The idle-ant rule: a passive ant is a reserve scout. With
      // probability search_prob_ it spends the round searching (and is
      // therefore absent from the home-nest pairing); otherwise it waits
      // at home, recruitable, exactly like Algorithm 3's passive ants.
      scouting_ = rng_.bernoulli(search_prob_);
      return scouting_ ? env::Action::search()
                       : env::Action::recruit(false, nest_);
    }
    case Phase::kAssess:
      return env::Action::go(nest_);
  }
  HH_ASSERT(false);
  return env::Action::idle();
}

void IdleSearchAnt::observe(const env::Outcome& outcome) {
  switch (phase_) {
    case Phase::kInit:
      // As Algorithm 3's first round: commit to the found nest; a bad
      // find parks the ant in the passive (idle) reserve.
      nest_ = outcome.nest;
      count_ = outcome.count;
      if (outcome.quality <= 0.0) active_ = false;
      phase_ = Phase::kRecruit;
      break;
    case Phase::kRecruit:
      if (scouting_) {
        // A reserve scout's find: adopt a good nest and activate (the
        // idle ant re-enters the workforce); a bad find changes nothing.
        if (outcome.quality > 0.0) {
          nest_ = outcome.nest;
          count_ = outcome.count;
          active_ = true;
        }
        scouting_ = false;
      } else if (outcome.nest != nest_) {
        // Recruited (or poached): adopt the recruiter's nest, activate.
        nest_ = outcome.nest;
        active_ = true;
      }
      phase_ = Phase::kAssess;
      break;
    case Phase::kAssess:
      count_ = outcome.count;
      // Nest rejection, as in Algorithm 3: an ant committed to a nest it
      // perceives as unsuitable stops recruiting for it.
      if (outcome.quality <= 0.0) active_ = false;
      phase_ = Phase::kRecruit;
      break;
  }
}

void register_idle_search_algorithm(AlgorithmRegistry& registry) {
  AlgorithmSpec spec;
  spec.name = std::string(kIdleSearchAlgorithmName);
  spec.summary =
      "Algorithm 3 + Afek-Gordon-Sulamy idle-ant rule: passive ants "
      "re-scout as a reserve workforce";
  spec.mode = ConvergenceMode::kCommitment;
  spec.params = {"n_estimate_error", "idle_search_prob"};
  // No pack factory: every kAuto run falls back to the per-object engine
  // with the reason on RunResult::engine_fallback; engine=kPacked throws
  // naming it.
  spec.colony = [](const SimulationConfig& config, env::FaultPlan plan,
                   std::uint64_t colony_seed, const AlgorithmParams& params) {
    const double search_prob = params.idle_search_prob;
    const AntFactory factory = [&config, &params,
                                search_prob](env::AntId, util::Rng rng) {
      const std::uint32_t n =
          believed_colony_size(config.num_ants, params.n_estimate_error, rng);
      return std::make_unique<IdleSearchAnt>(n, rng, search_prob);
    };
    return make_colony(config.num_ants, factory, std::move(plan), colony_seed,
                       std::string(kIdleSearchAlgorithmName));
  };
  registry.add(std::move(spec));
}

}  // namespace hh::core
