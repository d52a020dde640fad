// The three model primitives an ant may invoke each round (paper Section 2):
// search(), go(i), recruit(b, i) — plus an Idle pseudo-action used only by
// the Section 6 extensions (crash faults, partial synchrony), which is
// rejected by the environment unless explicitly enabled.
#ifndef HH_ENV_ACTION_HPP
#define HH_ENV_ACTION_HPP

#include <cstdint>

#include "env/nest.hpp"

namespace hh::env {

/// Which model primitive an ant invokes this round.
enum class ActionKind : std::uint8_t {
  kSearch,   ///< search(): visit a uniformly random candidate nest
  kGo,       ///< go(i): revisit a known candidate nest
  kRecruit,  ///< recruit(b, i): return home and participate in recruitment
  kIdle,     ///< extension only: stay put (crashed / asleep ant)
};

/// One ant's single function call for a round.
///
/// Construct through the factory functions below; the raw aggregate is kept
/// public so tests can build malformed actions to exercise model validation.
struct Action {
  ActionKind kind = ActionKind::kIdle;
  NestId target = kHomeNest;  ///< Go: nest to visit; Recruit: nest advertised
  bool active = false;        ///< Recruit only: b (true = actively recruit)

  /// search(): relocate to a uniformly random candidate nest.
  [[nodiscard]] static Action search() { return {ActionKind::kSearch, kHomeNest, false}; }

  /// go(i): revisit candidate nest i (must be known to the ant).
  [[nodiscard]] static Action go(NestId i) { return {ActionKind::kGo, i, false}; }

  /// recruit(b, i): return to the home nest; if b, actively recruit to
  /// nest i (must be known); if !b, wait to be recruited (i may be the
  /// home nest for ants that know no candidate yet — see DESIGN.md §2).
  [[nodiscard]] static Action recruit(bool b, NestId i) {
    return {ActionKind::kRecruit, i, b};
  }

  /// Extension: do nothing this round (requires EnvironmentConfig::allow_idle).
  [[nodiscard]] static Action idle() { return {ActionKind::kIdle, kHomeNest, false}; }
};

/// The environment's reply to an ant's call, delivered at end of round.
/// All counts are end-of-round values c(i, r), possibly distorted by the
/// env::Observation (Section 6 noisy-estimation extension).
struct Outcome {
  ActionKind kind = ActionKind::kIdle;
  /// Search: the nest found. Go: the nest visited. Recruit: the return
  /// value j — the recruiter's advertised nest if this ant was recruited,
  /// otherwise the ant's own input nest.
  NestId nest = kHomeNest;
  /// Search only: perceived quality q(i) of the found nest.
  double quality = 0.0;
  /// Search/Go: perceived c(nest, r). Recruit: perceived c(0, r).
  std::uint32_t count = 0;
  /// Recruit diagnostics (NOT observable through the paper's interface —
  /// provided for metrics/tests only; conforming ants must not read these).
  bool recruited = false;          ///< (a*, a) ∈ M for some recruiter a*
  bool recruit_succeeded = false;  ///< (a, a') ∈ M; this ant recruited a'
};

}  // namespace hh::env

#endif  // HH_ENV_ACTION_HPP
