#include "core/colony.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace hh::core {

Colony make_colony(std::uint32_t num_ants, const AntFactory& factory,
                   env::FaultPlan plan, std::uint64_t seed,
                   std::string algorithm) {
  HH_EXPECTS(num_ants >= 1);
  HH_EXPECTS(plan.type.size() == num_ants);
  Colony colony;
  colony.algorithm = std::move(algorithm);
  colony.ants.reserve(num_ants);
  for (env::AntId a = 0; a < num_ants; ++a) {
    util::Rng stream(util::mix_seed(seed, a, 0xA17));
    switch (plan.type[a]) {
      case env::FaultType::kNone:
        colony.ants.push_back(factory(a, stream));
        break;
      case env::FaultType::kCrash:
        colony.ants.push_back(std::make_unique<CrashProneAnt>(
            factory(a, stream), plan.crash_round[a]));
        break;
      case env::FaultType::kByzantine:
        colony.ants.push_back(std::make_unique<ByzantineAnt>(num_ants, stream));
        break;
    }
  }
  colony.faults = std::move(plan);
  return colony;
}

std::uint32_t believed_colony_size(std::uint32_t num_ants, double error,
                                   util::Rng& rng) {
  if (error <= 0.0) return num_ants;
  const double lo = static_cast<double>(num_ants) * (1.0 - error);
  const double hi = static_cast<double>(num_ants) * (1.0 + error);
  const double belief = lo + (hi - lo) * rng.uniform_double();
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(belief));
}

CrashProneAnt::CrashProneAnt(std::unique_ptr<Ant> inner,
                             std::uint32_t crash_round)
    : inner_(std::move(inner)), crash_round_(crash_round) {
  HH_EXPECTS(inner_ != nullptr);
  HH_EXPECTS(crash_round_ >= 1);
}

env::Action CrashProneAnt::decide(std::uint32_t round) {
  if (crashed_ || round >= crash_round_) {
    crashed_ = true;
    return env::Action::idle();
  }
  return inner_->decide(round);
}

void CrashProneAnt::observe(const env::Outcome& outcome) {
  if (crashed_) return;  // a crashed ant learns nothing
  inner_->observe(outcome);
}

ByzantineAnt::ByzantineAnt(std::uint32_t num_ants, util::Rng rng,
                           std::uint32_t scout_rounds)
    : rng_(rng), scout_rounds_(std::max(1u, scout_rounds)) {
  HH_EXPECTS(num_ants >= 1);
}

env::Action ByzantineAnt::decide(std::uint32_t /*round*/) {
  if (rounds_scouted_ < scout_rounds_) return env::Action::search();
  return env::Action::recruit(true, target_);
}

void ByzantineAnt::observe(const env::Outcome& outcome) {
  if (outcome.kind == env::ActionKind::kSearch) {
    ++rounds_scouted_;
    // Track the worst nest seen; ties broken toward the first found so the
    // adversary concentrates its pull on a single bad nest.
    if (outcome.quality < target_quality_) {
      target_quality_ = outcome.quality;
      target_ = outcome.nest;
    }
  }
  // Recruit outcomes are ignored: the adversary cannot be persuaded.
}

}  // namespace hh::core
