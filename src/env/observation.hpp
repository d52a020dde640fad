// Observation — exact (the paper's base model) or noisy (Section 6: "real
// ants can only assess nest quality and population approximately").
//
// The noisy model provides *unbiased* estimators, matching the paper's
// conjecture that Algorithm 3 stays correct "as long as ants have unbiased
// estimators of these values ... perhaps with some runtime cost dependent
// on estimator variance".
#ifndef HH_ENV_OBSERVATION_HPP
#define HH_ENV_OBSERVATION_HPP

#include <cstdint>

#include "util/rng.hpp"

namespace hh::env {

/// Copyable description of how ants perceive, used inside configs. All
/// zero (the default) is exact observation.
struct NoiseConfig {
  double count_sigma = 0.0;
  double quality_flip_prob = 0.0;
  double quality_sigma = 0.0;

  [[nodiscard]] bool any() const {
    return count_sigma > 0.0 || quality_flip_prob > 0.0 || quality_sigma > 0.0;
  }
};

/// What an ant perceives of the true counts and qualities the environment
/// returns. Without noise (the default) ants observe exactly and nothing
/// is drawn. Section 6 noisy observation:
///   * counts: multiplicative uniform noise count * U(1-sigma, 1+sigma),
///     rounded to nearest — unbiased before rounding, bounded, and zero
///     counts stay zero (an empty nest cannot look populated);
///   * binary quality: flipped with probability quality_flip_prob
///     (models "assessments by an individual ant are not always precise");
///   * real-valued quality: additive uniform noise U(-q_sigma, +q_sigma),
///     clamped to [0,1].
class Observation {
 public:
  /// noise.count_sigma >= 0: relative half-width of count noise.
  /// noise.quality_flip_prob in [0,1]: binary misperception probability.
  /// noise.quality_sigma >= 0: additive half-width for real-valued
  /// qualities.
  explicit Observation(const NoiseConfig& noise = {});

  /// True iff perception is the identity and draws nothing: the
  /// environment then skips the perception pass, and callers read the true
  /// counts and qualities.
  [[nodiscard]] bool exact() const { return exact_; }

  /// Perceived population count given the true count.
  [[nodiscard]] std::uint32_t perceive_count(std::uint32_t true_count,
                                             util::Rng& rng) const;
  /// Perceived nest quality given the true quality (in [0,1]).
  [[nodiscard]] double perceive_quality(double true_quality,
                                        util::Rng& rng) const;

 private:
  double count_sigma_;
  double quality_flip_prob_;
  double quality_sigma_;
  bool exact_;
};

}  // namespace hh::env

#endif  // HH_ENV_OBSERVATION_HPP
