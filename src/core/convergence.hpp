// Detection of the HouseHunting predicate (paper Section 2): "there exists
// a nest i with q(i) = 1 such that l(a, r) = i for all ants a and all
// rounds r >= T".
//
// Neither paper algorithm physically parks the colony (Section 4.2
// discusses this), so three detection modes are provided:
//   * kCommitment — every correct ant's committed_nest() is one good nest
//     (the paper's working notion of "solved" for both algorithms);
//   * kCommitmentFinalized — additionally every correct ant reports
//     finalized() (Algorithm 2's "all ants have reached the final state");
//   * kPhysical — the literal predicate: every correct ant is *located* at
//     one good nest (achievable with the settle extension).
// A configurable stability window requires the condition to hold for S
// consecutive rounds before convergence is declared.
#ifndef HH_CORE_CONVERGENCE_HPP
#define HH_CORE_CONVERGENCE_HPP

#include <cstdint>
#include <optional>
#include <span>

#include "core/colony.hpp"
#include "env/environment.hpp"

namespace hh::core {

/// What "all ants decided" means for a given algorithm.
enum class ConvergenceMode : std::uint8_t {
  kCommitment,
  kCommitmentFinalized,
  kPhysical,
};

/// The detection mode each built-in algorithm is verified under (the
/// kind's row of the built-in catalog, core/registry.cpp).
[[nodiscard]] ConvergenceMode default_mode(AlgorithmKind kind);

/// If the correct ants currently agree per `mode`, the agreed nest.
/// Only nests with positive quality count (the colony must not settle on
/// an unsuitable nest); kHomeNest never qualifies.
///
/// `tolerance` relaxes unanimity: agreement holds when at least a
/// (1 - tolerance) fraction of correct ants are on one good nest. The
/// default 0 is the strict HouseHunting predicate; a positive tolerance is
/// the right notion under persistent Byzantine recruiters, which keep a
/// small rotating pool of correct ants kidnapped at any instant (the
/// paper's Section 6 fault-tolerance claim is population-level).
[[nodiscard]] std::optional<env::NestId> current_agreement(
    const Colony& colony, const env::Environment& environment,
    ConvergenceMode mode, double tolerance = 0.0);

/// Allocation-free form: takes the census into `census` (size k+1,
/// caller-owned scratch; its contents on entry do not matter).
[[nodiscard]] std::optional<env::NestId> current_agreement(
    const Colony& colony, const env::Environment& environment,
    ConvergenceMode mode, double tolerance, std::span<std::uint32_t> census);

/// Census-form agreement check shared by both engines and both worlds:
/// `census[i]` counts the agreeing ants per nest (size k+1),
/// `correct_total` is the number of correct ants the census was taken
/// over, and `qualities[i - 1]` is nest i's quality (size k; the lattice
/// passes its one pseudo-nest, "reached the target"). Same
/// winner/tolerance semantics as current_agreement.
[[nodiscard]] std::optional<env::NestId> agreement_from_census(
    std::span<const std::uint32_t> census, std::uint32_t correct_total,
    std::span<const double> qualities, double tolerance = 0.0);

/// Streak-tracking detector: update() once per round; fires when agreement
/// on one nest has held for `stability_rounds + 1` consecutive rounds.
class ConvergenceDetector {
 public:
  explicit ConvergenceDetector(ConvergenceMode mode,
                               std::uint32_t stability_rounds = 0,
                               double tolerance = 0.0)
      : mode_(mode),
        stability_rounds_(stability_rounds),
        tolerance_(tolerance) {}

  /// Evaluate after a round; returns true once converged (sticky).
  /// `census` is the per-object census's scratch (size k+1), so a round
  /// allocates nothing.
  bool update(const Colony& colony, const env::Environment& environment,
              std::span<std::uint32_t> census);

  /// Census-form update (see agreement_from_census): the packed engine's
  /// agreement census, or a lattice colony's {walking, reached} census.
  /// `round` is the 1-based round just completed.
  bool update(std::span<const std::uint32_t> census,
              std::uint32_t correct_total, std::span<const double> qualities,
              std::uint32_t round);

  /// The streak bookkeeping both update() overloads feed: `agreement` is
  /// the round's agreed nest (nullopt = none), `round` the 1-based round
  /// just completed. Exposed so the semantics can be pinned by
  /// table-driven tests without building colonies. The rules:
  ///   * no agreement  -> the streak breaks; streak state (including
  ///     decision_round) is otherwise untouched;
  ///   * a new nest    -> a fresh streak starts AT `round` (so
  ///     decision_round() is the first round of the winning agreement);
  ///   * the same nest -> the streak extends;
  ///   * converged once the streak spans stability_rounds + 1 consecutive
  ///     rounds (with the default stability 0, immediately). Sticky.
  bool observe_agreement(std::optional<env::NestId> agreement,
                         std::uint32_t round);

  /// Forget everything (for arena reuse across trials); equivalent to a
  /// freshly constructed detector with the same mode/stability/tolerance.
  void reset();

  [[nodiscard]] bool converged() const { return converged_; }
  /// The winning nest (only meaningful once converged).
  [[nodiscard]] env::NestId winner() const { return winner_; }
  /// The environment round at which the agreement streak began.
  [[nodiscard]] std::uint32_t decision_round() const { return streak_start_; }
  [[nodiscard]] ConvergenceMode mode() const { return mode_; }

 private:
  ConvergenceMode mode_;
  std::uint32_t stability_rounds_;
  double tolerance_;
  bool converged_ = false;
  env::NestId winner_ = env::kHomeNest;
  env::NestId streak_nest_ = env::kHomeNest;
  std::uint32_t streak_length_ = 0;
  std::uint32_t streak_start_ = 0;
};

}  // namespace hh::core

#endif  // HH_CORE_CONVERGENCE_HPP
