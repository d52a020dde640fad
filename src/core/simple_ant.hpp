// Algorithm 3 — the simple, natural O(k log n) house-hunting algorithm
// (paper Section 5).
//
// Round 1: every ant searches; ants that find a bad nest turn passive.
// Thereafter rounds alternate between recruitment (all ants at the home
// nest) and population assessment (all ants at their candidate nests):
//
//   recruitment round:  active ant:  recruit(b, nest), b ~ Bernoulli(count/n)
//                       passive ant: recruit(0, nest)
//   assessment round:   every ant:   count := go(nest)
//
// Recruitment probability proportional to nest population is the positive
// feedback that makes larger nests swamp smaller ones (a Pólya-urn-like
// dynamic); a recruited ant adopts the recruiter's nest and, if passive,
// becomes active.
#ifndef HH_CORE_SIMPLE_ANT_HPP
#define HH_CORE_SIMPLE_ANT_HPP

#include <cstdint>

#include "core/ant.hpp"
#include "util/rng.hpp"

namespace hh::core {

/// One ant of Algorithm 3.
class SimpleAnt : public Ant {
 public:
  /// `num_ants` is the colony size n; `rng` is the ant's private stream
  /// (ants are probabilistic state machines).
  SimpleAnt(std::uint32_t num_ants, util::Rng rng);

  [[nodiscard]] env::Action decide(std::uint32_t round) override;
  void observe(const env::Outcome& outcome) override;
  [[nodiscard]] env::NestId committed_nest() const override { return nest_; }
  [[nodiscard]] std::string_view name() const override { return "simple"; }

  /// Whether the ant is in the active (recruiting) state.
  [[nodiscard]] bool active() const { return active_; }
  /// The ant's latest population estimate for its nest.
  [[nodiscard]] std::uint32_t count() const { return count_; }

  /// Line 6's rate count/n, the base of every variant's rule (the packed
  /// engine calls it too: equivalence needs the same expression).
  [[nodiscard]] static double proportional_rate(std::uint32_t count,
                                                std::uint32_t num_ants) {
    return static_cast<double>(count) / static_cast<double>(num_ants);
  }

 protected:
  /// The probability with which an active ant chooses b = 1 this round.
  /// Algorithm 3 uses count/n (line 6); the Section 6 variants override.
  [[nodiscard]] virtual double recruit_probability() const;

  /// Colony size n (available to subclasses for their probability rules).
  [[nodiscard]] std::uint32_t num_ants() const { return num_ants_; }
  /// Perceived quality of the nest the ant last searched/assessed.
  [[nodiscard]] double quality() const { return quality_; }
  /// The round currently being decided (1-based; Section 6 notes ants may
  /// "keep track of the round number").
  [[nodiscard]] std::uint32_t current_round() const { return round_; }

 private:
  enum class Phase : std::uint8_t { kInit, kRecruit, kAssess };

  std::uint32_t num_ants_;
  util::Rng rng_;

  Phase phase_ = Phase::kInit;
  bool active_ = true;  ///< line 1: initially active
  env::NestId nest_ = env::kHomeNest;
  std::uint32_t count_ = 0;
  double quality_ = 0.0;
  std::uint32_t round_ = 0;
};

}  // namespace hh::core

#endif  // HH_CORE_SIMPLE_ANT_HPP
