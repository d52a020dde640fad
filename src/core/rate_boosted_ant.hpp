// Section 6 "Improved running time" variant of Algorithm 3.
//
// The paper observes that Algorithm 3 needs O(k log n) rounds because each
// nest starts with ~n/k ants, so ants recruit with probability only ~1/k;
// it sketches the fix: "If ants keep track of the round number, they can
// map this to an estimate k~(r) of how many competing nests remain,
// allowing them to recruit at rate O(c(i,r)/n * k~(r))", conjecturing
// O(log^c n) convergence.
//
// Instantiation. Ants know n but not k; the search round spreads the
// colony ~evenly, so an ant's first observed count c0 yields a one-shot
// estimate k^ = n / c0 of the *initial* competition. The remaining
// competition is then tracked by the round-indexed geometric decay the
// paper suggests (once rates are Theta(1), eliminating a nest takes
// Theta(log n) rounds, so survivors halve on that schedule):
//
//     k~(r) = max(1, k^ * 2^(-floor(r / tau))),   tau = 3 * log2(n)
//     P[recruit] = max(count/n, min(1/2, (count / n) * k~(r) / 8)).
//
// (The outer max keeps the variant at least as aggressive as Algorithm 3
// itself — for small k the base rate count/n is already Theta(1) and the
// conservatively-capped boost would otherwise slow the endgame down.)
//
// Why the /8 and the schedule are both needed: recruitment probabilities
// must stay *proportional* to population across competing nests (the
// positive feedback that drives consensus). The cap at 1/2 destroys
// proportionality for every nest it binds on (equal rates = neutral
// Polya regime, no drift). With the /8 scaling no nest is capped while
// k~ is within 4x of the true survivor count, and whenever eliminations
// outpace the schedule the decay catches up within tau rounds, bounding
// any neutral stall. Rates are Theta(1) throughout — Theta(k) higher than
// Algorithm 3's — giving O(log n) per elimination generation and
// O(log k * log n) total, matching the paper's polylog conjecture
// (experiment E10 measures this against Algorithm 3's linear-in-k time).
#ifndef HH_CORE_RATE_BOOSTED_ANT_HPP
#define HH_CORE_RATE_BOOSTED_ANT_HPP

#include <algorithm>

#include "core/simple_ant.hpp"

namespace hh::core {

/// Algorithm 3 with the boosted recruitment rate sketched in Section 6.
class RateBoostedAnt final : public SimpleAnt {
 public:
  RateBoostedAnt(std::uint32_t num_ants, util::Rng rng);

  void observe(const env::Outcome& outcome) override;
  [[nodiscard]] std::string_view name() const override { return "rate-boosted"; }

  /// The ant's current competition estimate k~(r); 0 before the first
  /// search lands.
  [[nodiscard]] double k_estimate() const;

  // The variant's rules (formulas above) for an ant that believes the
  // colony has n ants; SimpleFamilyPack calls them too.

  /// tau (at least 8 rounds).
  [[nodiscard]] static std::uint32_t halving_period(std::uint32_t num_ants);
  /// k^ from the count c0 the search returned.
  [[nodiscard]] static double initial_k_estimate(std::uint32_t num_ants,
                                                 std::uint32_t count) {
    const double observed = std::max<std::uint32_t>(count, 1);
    return std::max(1.0, static_cast<double>(num_ants) / observed);
  }
  /// k~(r); 0 while k^ is 0 (before the search lands).
  [[nodiscard]] static double k_estimate_at(double initial_k,
                                            std::uint32_t round,
                                            std::uint32_t halving_period) {
    if (initial_k == 0.0) return 0.0;
    const std::uint32_t halvings = round / halving_period;
    // 2^halvings without pow(); past 63 halvings k~ is 1 regardless.
    const double decayed =
        (halvings >= 63) ? 1.0
                         : initial_k / static_cast<double>(1ULL << halvings);
    return std::max(1.0, decayed);
  }
  /// P[recruit] from the base rate count/n and k~(r).
  [[nodiscard]] static double boosted_rate(double base, double k_estimate) {
    return std::max(base, std::min(0.5, base * k_estimate / 8.0));
  }

 protected:
  [[nodiscard]] double recruit_probability() const override;

 private:
  double initial_k_estimate_ = 0.0;  ///< k^ from the search round
  std::uint32_t halving_period_;     ///< tau
};

}  // namespace hh::core

#endif  // HH_CORE_RATE_BOOSTED_ANT_HPP
