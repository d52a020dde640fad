#include "env/observation.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace hh::env {

Observation::Observation(const NoiseConfig& noise)
    : count_sigma_(noise.count_sigma),
      quality_flip_prob_(noise.quality_flip_prob),
      quality_sigma_(noise.quality_sigma),
      exact_(!noise.any()) {
  HH_EXPECTS(count_sigma_ >= 0.0);
  HH_EXPECTS(quality_flip_prob_ >= 0.0 && quality_flip_prob_ <= 1.0);
  HH_EXPECTS(quality_sigma_ >= 0.0);
}

std::uint32_t Observation::perceive_count(std::uint32_t true_count,
                                          util::Rng& rng) const {
  if (count_sigma_ == 0.0 || true_count == 0) return true_count;
  const double factor = 1.0 + count_sigma_ * (2.0 * rng.uniform_double() - 1.0);
  const double noisy = std::max(0.0, std::round(true_count * factor));
  return static_cast<std::uint32_t>(noisy);
}

double Observation::perceive_quality(double true_quality,
                                     util::Rng& rng) const {
  double q = true_quality;
  // Binary misperception: applies to the paper's Q = {0,1} setting.
  if (quality_flip_prob_ > 0.0 && rng.bernoulli(quality_flip_prob_)) {
    q = (q > 0.5) ? 0.0 : 1.0;
  }
  if (quality_sigma_ > 0.0) {
    q += quality_sigma_ * (2.0 * rng.uniform_double() - 1.0);
  }
  return std::clamp(q, 0.0, 1.0);
}

}  // namespace hh::env
