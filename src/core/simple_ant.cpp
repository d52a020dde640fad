#include "core/simple_ant.hpp"

#include "util/contracts.hpp"

namespace hh::core {

SimpleAnt::SimpleAnt(std::uint32_t num_ants, util::Rng rng)
    : num_ants_(num_ants), rng_(rng) {
  HH_EXPECTS(num_ants >= 1);
}

double SimpleAnt::recruit_probability() const {
  // Line 6: b := 1 with probability count/n. The perceived count can
  // exceed n under the noisy-observation extension; bernoulli() clamps.
  return proportional_rate(count_, num_ants_);
}

env::Action SimpleAnt::decide(std::uint32_t round) {
  round_ = round;
  switch (phase_) {
    case Phase::kInit:
      return env::Action::search();  // line 2
    case Phase::kRecruit: {
      if (!active_) return env::Action::recruit(false, nest_);  // line 10
      const bool b = rng_.bernoulli(recruit_probability());     // line 6
      return env::Action::recruit(b, nest_);                    // line 7
    }
    case Phase::kAssess:
      return env::Action::go(nest_);  // lines 8 / 14
  }
  HH_ASSERT(false);
  return env::Action::idle();
}

void SimpleAnt::observe(const env::Outcome& outcome) {
  switch (phase_) {
    case Phase::kInit:
      // Lines 2-4: commit to the found nest; bad quality => passive.
      nest_ = outcome.nest;
      count_ = outcome.count;
      quality_ = outcome.quality;
      if (quality_ <= 0.0) active_ = false;
      phase_ = Phase::kRecruit;
      break;
    case Phase::kRecruit:
      // Active, line 7: nest := recruit(b, nest) — unconditional assignment,
      // so a poached active ant switches commitment. Passive, lines 10-13:
      // a recruited passive ant adopts the nest and becomes active.
      if (outcome.nest != nest_) {
        nest_ = outcome.nest;
        active_ = true;
      }
      phase_ = Phase::kAssess;
      break;
    case Phase::kAssess:
      // Lines 8 / 14: count := go(nest).
      count_ = outcome.count;
      quality_ = outcome.quality;
      // Nest rejection (paper Section 1.1: a recruited ant "can assess the
      // nest itself and begin performing tandem runs if the nest is
      // acceptable"): an ant that finds itself committed to an unsuitable
      // nest stops recruiting for it and waits to be led elsewhere. With
      // exact observation this never triggers for ants recruited by
      // correct peers (only good-nest ants recruit); it matters under
      // noisy quality perception and Byzantine recruiters (Section 6).
      if (quality_ <= 0.0) active_ = false;
      phase_ = Phase::kRecruit;
      break;
  }
}

}  // namespace hh::core
