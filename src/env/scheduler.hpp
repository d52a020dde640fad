// Round scheduler (paper Section 6, "Asynchrony"): the base model is
// fully synchronous; the partial-synchrony extension lets each ant
// independently miss a round with some probability, modeling jitter in
// when ants act. A sleeping ant idles in place and its own state machine
// does not advance that round.
#ifndef HH_ENV_SCHEDULER_HPP
#define HH_ENV_SCHEDULER_HPP

#include <cstdint>

#include "util/rng.hpp"

namespace hh::env {

/// Decides, per ant and round, whether the ant gets to act. A skip
/// probability <= 0 is the paper's base model: every ant acts every
/// round and the scheduler draws nothing. A positive one is partial
/// synchrony: each ant independently sleeps through a round with that
/// probability, except round 0 (the global search), so every ant starts
/// with one known nest.
class Scheduler {
 public:
  /// Requires skip_probability < 1 (NaN is rejected too).
  explicit Scheduler(double skip_probability);

  /// True iff the ant being asked about executes its state machine in
  /// `round`; one draw from `rng` under partial synchrony after round 0.
  [[nodiscard]] bool awake(std::uint32_t round, util::Rng& rng) const {
    if (skip_probability_ <= 0.0 || round == 0) return true;
    return !rng.bernoulli(skip_probability_);
  }

 private:
  double skip_probability_;
};

}  // namespace hh::env

#endif  // HH_ENV_SCHEDULER_HPP
