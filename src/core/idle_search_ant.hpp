// The idle-search variant — a PAPERS.md algorithm registered purely
// through the registry-v2 API (core/registry.hpp), with zero engine edits.
//
// Inspired by Afek, Gordon & Sulamy, "Idle Ants Have a Role" (DISC 2015,
// arXiv:1506.07118): a sizable fraction of a real colony is "idle", and
// the paper argues these ants act as a reserve workforce that keeps the
// colony responsive. Grafted onto Algorithm 3's recruitment dynamic:
//
//   * active ants behave exactly as in Algorithm 3 — recruit(b, nest)
//     with b ~ Bernoulli(count / n) in recruitment rounds, go(nest) in
//     assessment rounds;
//   * PASSIVE (idle) ants are not dead weight waiting at the home nest:
//     in each recruitment round, with probability idle_search_prob
//     (AlgorithmParams) they spend the round re-scouting — search() — at
//     the cost of being absent from the pairing (they cannot be recruited
//     that round). An idle scout that turns up a good nest adopts it and
//     activates itself, feeding discoveries into the urn dynamic that
//     pure Algorithm 3 would only reach through recruitment chains.
//
// Scalar-only: the spec carries no pack factory, so every kAuto run lands
// on the per-object engine with a loud fallback reason ("algorithm
// 'idle-search' has no packed implementation"), and engine=kPacked throws
// with the same reason.
#ifndef HH_CORE_IDLE_SEARCH_ANT_HPP
#define HH_CORE_IDLE_SEARCH_ANT_HPP

#include <cstdint>

#include "core/ant.hpp"
#include "util/rng.hpp"

namespace hh::core {

class AlgorithmRegistry;

/// One ant of the idle-search variant.
class IdleSearchAnt final : public Ant {
 public:
  /// `num_ants` is the ant's (possibly approximate) belief of n;
  /// `search_prob` is the per-recruitment-round re-scout probability of a
  /// passive ant.
  IdleSearchAnt(std::uint32_t num_ants, util::Rng rng, double search_prob);

  [[nodiscard]] env::Action decide(std::uint32_t round) override;
  void observe(const env::Outcome& outcome) override;
  [[nodiscard]] env::NestId committed_nest() const override { return nest_; }
  [[nodiscard]] std::string_view name() const override {
    return "idle-search";
  }

  /// Whether the ant is in the active (recruiting) state.
  [[nodiscard]] bool active() const { return active_; }

 private:
  enum class Phase : std::uint8_t { kInit, kRecruit, kAssess };

  std::uint32_t num_ants_;
  util::Rng rng_;
  double search_prob_;

  Phase phase_ = Phase::kInit;
  bool active_ = true;
  bool scouting_ = false;  ///< this recruitment round was spent searching
  env::NestId nest_ = env::kHomeNest;
  std::uint32_t count_ = 0;
};

/// The stable registry name of the variant.
inline constexpr std::string_view kIdleSearchAlgorithmName = "idle-search";

/// Register the variant's AlgorithmSpec (no pack: scalar-only; params:
/// n_estimate_error, idle_search_prob). Called once by the registry's
/// built-in bootstrap; safe to call again (replacement).
void register_idle_search_algorithm(AlgorithmRegistry& registry);

}  // namespace hh::core

#endif  // HH_CORE_IDLE_SEARCH_ANT_HPP
