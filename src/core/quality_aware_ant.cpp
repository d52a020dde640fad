#include "core/quality_aware_ant.hpp"

namespace hh::core {

QualityAwareAnt::QualityAwareAnt(std::uint32_t num_ants, util::Rng rng)
    : SimpleAnt(num_ants, rng) {}

double QualityAwareAnt::recruit_probability() const {
  return quality_weighted_rate(SimpleAnt::recruit_probability(), quality());
}

}  // namespace hh::core
