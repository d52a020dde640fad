#include "core/quorum_ant.hpp"

#include "util/contracts.hpp"

namespace hh::core {

QuorumAnt::QuorumAnt(std::uint32_t num_ants, util::Rng rng,
                     std::uint32_t quorum_threshold, double tandem_rate)
    : num_ants_(num_ants),
      rng_(rng),
      quorum_threshold_(quorum_threshold),
      tandem_rate_(tandem_rate) {
  HH_EXPECTS(num_ants >= 1);
  HH_EXPECTS(quorum_threshold >= 1);
  HH_EXPECTS(tandem_rate >= 0.0 && tandem_rate <= 1.0);
}

env::Action QuorumAnt::decide(std::uint32_t /*round*/) {
  switch (stage_) {
    case Stage::kInit:
      return env::Action::search();
    case Stage::kPassive:
      if (phase_ == Phase::kRecruit) return env::Action::recruit(false, nest_);
      return env::Action::go(nest_);
    case Stage::kPreQuorum:
      if (phase_ == Phase::kRecruit) {
        const double p = tandem_probability(tandem_rate_, count_, num_ants_);
        return env::Action::recruit(rng_.bernoulli(p), nest_);
      }
      return env::Action::go(nest_);
    case Stage::kQuorumMet:
      // Transport: direct carrying is modeled as recruiting every round
      // (the paper folds transport into recruit(), Section 2).
      return env::Action::recruit(true, nest_);
  }
  HH_ASSERT(false);
  return env::Action::idle();
}

void QuorumAnt::observe(const env::Outcome& outcome) {
  switch (stage_) {
    case Stage::kInit:
      nest_ = outcome.nest;
      count_ = outcome.count;
      stage_ = (outcome.quality > 0.0) ? Stage::kPreQuorum : Stage::kPassive;
      phase_ = Phase::kRecruit;
      break;
    case Stage::kPassive:
      if (phase_ == Phase::kRecruit) {
        if (outcome.nest != nest_) {
          nest_ = outcome.nest;  // recruited: follow the tandem run
          stage_ = Stage::kPreQuorum;
        }
        phase_ = Phase::kAssess;
      } else {
        count_ = outcome.count;
        phase_ = Phase::kRecruit;
      }
      break;
    case Stage::kPreQuorum:
      if (phase_ == Phase::kRecruit) {
        if (outcome.nest != nest_) nest_ = outcome.nest;  // still persuadable
        phase_ = Phase::kAssess;
      } else {
        count_ = outcome.count;
        if (count_ >= quorum_threshold_) stage_ = Stage::kQuorumMet;
        phase_ = Phase::kRecruit;
      }
      break;
    case Stage::kQuorumMet:
      // Commitment locked: the recruit() return value is ignored, so being
      // "led away" has no effect on a post-quorum transporter.
      break;
  }
}

}  // namespace hh::core
