#include "core/convergence.hpp"

#include <algorithm>
#include <vector>

#include "util/contracts.hpp"

namespace hh::core {

std::optional<env::NestId> agreement_from_census(
    std::span<const std::uint32_t> census, std::uint32_t correct_total,
    std::span<const double> qualities, double tolerance) {
  HH_EXPECTS(tolerance >= 0.0 && tolerance < 1.0);
  HH_EXPECTS(census.size() == qualities.size() + 1);
  if (correct_total == 0) return std::nullopt;
  env::NestId best = env::kHomeNest;
  for (env::NestId i = 1; i < census.size(); ++i) {
    if (census[i] > census[best] || best == env::kHomeNest) best = i;
  }
  if (best == env::kHomeNest || census[best] == 0) return std::nullopt;
  if (qualities[best - 1] <= 0.0) return std::nullopt;
  const double required =
      (1.0 - tolerance) * static_cast<double>(correct_total);
  if (static_cast<double>(census[best]) < required) return std::nullopt;
  return best;
}

std::optional<env::NestId> current_agreement(const Colony& colony,
                                             const env::Environment& environment,
                                             ConvergenceMode mode,
                                             double tolerance) {
  std::vector<std::uint32_t> census(environment.num_nests() + 1);
  return current_agreement(colony, environment, mode, tolerance, census);
}

std::optional<env::NestId> current_agreement(
    const Colony& colony, const env::Environment& environment,
    ConvergenceMode mode, double tolerance, std::span<std::uint32_t> census) {
  HH_EXPECTS(tolerance >= 0.0 && tolerance < 1.0);
  HH_EXPECTS(census.size() == environment.num_nests() + 1);
  // Census of correct ants per nest under the mode's notion of "position".
  std::fill(census.begin(), census.end(), 0u);
  std::uint32_t correct_total = 0;
  for (env::AntId a = 0; a < colony.size(); ++a) {
    if (!colony.correct(a)) continue;  // faulty ants are exempt
    const Ant& ant = *colony.ants[a];
    const env::NestId nest = (mode == ConvergenceMode::kPhysical)
                                 ? environment.location(a)
                                 : ant.committed_nest();
    ++correct_total;
    // Finalization is required of the agreeing majority; with tolerance 0
    // this means every correct ant.
    const bool counts = mode == ConvergenceMode::kCommitment || ant.finalized();
    if (counts) ++census[nest];
  }
  return agreement_from_census(census, correct_total, environment.qualities(),
                               tolerance);
}

bool ConvergenceDetector::update(const Colony& colony,
                                 const env::Environment& environment,
                                 std::span<std::uint32_t> census) {
  if (converged_) return true;
  return observe_agreement(
      current_agreement(colony, environment, mode_, tolerance_, census),
      environment.round());
}

bool ConvergenceDetector::update(std::span<const std::uint32_t> census,
                                 std::uint32_t correct_total,
                                 std::span<const double> qualities,
                                 std::uint32_t round) {
  if (converged_) return true;
  return observe_agreement(
      agreement_from_census(census, correct_total, qualities, tolerance_),
      round);
}

bool ConvergenceDetector::observe_agreement(
    std::optional<env::NestId> agreement, std::uint32_t round) {
  if (converged_) return true;
  if (!agreement.has_value()) {
    // The streak breaks; streak_start_ deliberately keeps its last value
    // (decision_round() is only meaningful once converged, and an
    // agreement-free round must not masquerade as a streak origin).
    streak_nest_ = env::kHomeNest;
    streak_length_ = 0;
    return false;
  }
  if (*agreement != streak_nest_) {
    // New streak — whether after a break (streak_nest_ == kHomeNest, which
    // agreement_from_census never returns) or a flip to a different nest
    // on the very next round. Either way it starts at this round.
    streak_nest_ = *agreement;
    streak_length_ = 1;
    streak_start_ = round;
  } else {
    ++streak_length_;
  }
  if (streak_length_ >= stability_rounds_ + 1) {
    converged_ = true;
    winner_ = streak_nest_;
  }
  return converged_;
}

void ConvergenceDetector::reset() {
  converged_ = false;
  winner_ = env::kHomeNest;
  streak_nest_ = env::kHomeNest;
  streak_length_ = 0;
  streak_start_ = 0;
}

}  // namespace hh::core
