// Biology-inspired quorum-threshold baseline.
//
// Temnothorax colonies are believed to commit to a nest once its population
// exceeds a quorum threshold (paper Section 1.1, citing Pratt et al.
// [22, 23]): pre-quorum ants lead slow tandem runs and can still be led
// away; an ant that senses a quorum switches to rapid transport and stops
// following others. This baseline lets the benches compare the paper's
// algorithms against the mechanism the biology literature describes, and
// exposes the classic speed/accuracy trade-off: a low threshold risks a
// split colony (two nests reach quorum), a high threshold is slow.
#ifndef HH_CORE_QUORUM_ANT_HPP
#define HH_CORE_QUORUM_ANT_HPP

#include <algorithm>
#include <cstdint>

#include "core/ant.hpp"
#include "util/rng.hpp"

namespace hh::core {

/// QuorumAnt's threshold in an n-ant colony: floor(fraction * n), at
/// least 1 (both engines derive it here).
[[nodiscard]] inline std::uint32_t quorum_threshold(std::uint32_t num_ants,
                                                    double fraction) {
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(fraction * num_ants));
}

/// Quorum-sensing ant: tandem-run until the nest's population exceeds the
/// threshold, then transport (recruit every round, commitment locked).
///
/// Pre-quorum recruitment is population-proportional like Algorithm 3 but
/// scaled by `tandem_rate` < 1 (tandem runs are ~3x slower than direct
/// transport, Section 2). Note that the model's round-1 search already
/// places ~n/k ants in every nest, so a threshold at or below n/k locks
/// every good nest immediately and splits the colony — the quorum
/// benchmark sweeps the threshold through this regime deliberately.
class QuorumAnt final : public Ant {
 public:
  /// `quorum_threshold` is the population count that locks commitment
  /// (biologically a function of colony size; callers typically pass
  /// quorum_fraction * n). `tandem_rate` scales pre-quorum recruitment.
  QuorumAnt(std::uint32_t num_ants, util::Rng rng,
            std::uint32_t quorum_threshold, double tandem_rate = 0.5);

  [[nodiscard]] env::Action decide(std::uint32_t round) override;
  void observe(const env::Outcome& outcome) override;
  [[nodiscard]] env::NestId committed_nest() const override { return nest_; }
  [[nodiscard]] bool finalized() const override {
    return stage_ == Stage::kQuorumMet;
  }
  [[nodiscard]] std::string_view name() const override { return "quorum"; }

  /// True once this ant has sensed a quorum (transport stage).
  [[nodiscard]] bool quorum_met() const { return stage_ == Stage::kQuorumMet; }

  /// A pre-quorum ant's b-probability: population-proportional tandem
  /// running, slowed by `tandem_rate` (QuorumPack calls it too).
  [[nodiscard]] static double tandem_probability(double tandem_rate,
                                                 std::uint32_t count,
                                                 std::uint32_t num_ants) {
    return tandem_rate * static_cast<double>(count) /
           static_cast<double>(num_ants);
  }

 private:
  enum class Stage : std::uint8_t {
    kInit,       ///< round-1 search
    kPassive,    ///< found a bad nest; waits to be recruited
    kPreQuorum,  ///< tandem-running for a good nest, still persuadable
    kQuorumMet,  ///< transport: recruits every round, commitment locked
  };
  enum class Phase : std::uint8_t { kRecruit, kAssess };

  std::uint32_t num_ants_;
  util::Rng rng_;
  std::uint32_t quorum_threshold_;
  double tandem_rate_;

  Stage stage_ = Stage::kInit;
  Phase phase_ = Phase::kRecruit;
  env::NestId nest_ = env::kHomeNest;
  std::uint32_t count_ = 0;
};

}  // namespace hh::core

#endif  // HH_CORE_QUORUM_ANT_HPP
