// Section 6 "Non-binary nest qualities" variant of Algorithm 3.
//
// With real-valued qualities in [0,1] "ants no longer have the notion of a
// good nest"; the paper suggests "incorporat[ing] the quality of the nest
// into the recruitment probability in order [to] make the algorithm
// converge to a high-quality nest". This variant recruits with probability
//
//     (count / n) * quality
//
// where quality is the ant's latest (possibly noisy) assessment of its
// nest — taken at search time and re-taken on every go() visit. Zero-
// quality nests never recruit, and among habitable nests the effective
// growth rate scales with quality, biasing the winner toward high-quality
// nests (experiment E11 measures the winner-quality distribution).
#ifndef HH_CORE_QUALITY_AWARE_ANT_HPP
#define HH_CORE_QUALITY_AWARE_ANT_HPP

#include <algorithm>

#include "core/simple_ant.hpp"

namespace hh::core {

/// Algorithm 3 with quality-weighted recruitment (Section 6).
class QualityAwareAnt final : public SimpleAnt {
 public:
  QualityAwareAnt(std::uint32_t num_ants, util::Rng rng);

  [[nodiscard]] std::string_view name() const override { return "quality-aware"; }

  /// P[recruit] = base * quality from the base rate count/n, quality
  /// clamped to [0, 1] (SimpleFamilyPack calls it too).
  [[nodiscard]] static double quality_weighted_rate(double base,
                                                    double quality) {
    return base * std::clamp(quality, 0.0, 1.0);
  }

 protected:
  [[nodiscard]] double recruit_probability() const override;
};

}  // namespace hh::core

#endif  // HH_CORE_QUALITY_AWARE_ANT_HPP
