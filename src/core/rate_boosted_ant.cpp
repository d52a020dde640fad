#include "core/rate_boosted_ant.hpp"

#include <algorithm>
#include <cmath>

namespace hh::core {

RateBoostedAnt::RateBoostedAnt(std::uint32_t num_ants, util::Rng rng)
    : SimpleAnt(num_ants, rng), halving_period_(halving_period(num_ants)) {}

std::uint32_t RateBoostedAnt::halving_period(std::uint32_t num_ants) {
  return std::max<std::uint32_t>(
      8, static_cast<std::uint32_t>(
             3.0 * std::log2(static_cast<double>(std::max(num_ants, 2u)))));
}

void RateBoostedAnt::observe(const env::Outcome& outcome) {
  const bool first_observation = initial_k_estimate_ == 0.0;
  SimpleAnt::observe(outcome);
  if (first_observation && outcome.kind == env::ActionKind::kSearch) {
    // One-shot estimate from the initial spread: ~n/k ants per nest.
    initial_k_estimate_ = initial_k_estimate(num_ants(), outcome.count);
  }
}

double RateBoostedAnt::k_estimate() const {
  return k_estimate_at(initial_k_estimate_, current_round(), halving_period_);
}

double RateBoostedAnt::recruit_probability() const {
  return boosted_rate(SimpleAnt::recruit_probability(), k_estimate());
}

}  // namespace hh::core
