// The environment-backend contract (DESIGN.md §9).
//
// A Backend is one simulated world: it owns the per-round state the paper
// calls the "environment" — ant locations, per-location population counts,
// whatever randomness the world's dynamics need — and resolves one
// synchronous round per step call. The decision-kernel layers above
// (core::Colony per-object ants, core::AntPack SoA kernels, the Simulation
// driver) speak only this contract, so the same kernels run against the
// paper's home-nest-plus-candidates world (HomeNestBackend) or a spatial
// world (LatticeBackend) without change.
//
// Contract obligations every backend must honor (the parametric
// conformance suite in tests/test_backend_contract.cpp pins each):
//
//   * zero-alloc rounds — no heap allocation in any step entry point
//     after construction; all round state is owned and reused;
//   * reset(seed) == fresh — a reset backend is indistinguishable from a
//     newly constructed one with that seed (the arena-reuse invariant,
//     DESIGN.md §4);
//   * masked/generic RNG equivalence — every masked SoA entry point the
//     backend supports makes identical draws in identical order to
//     step() with the corresponding Action vector.
//
// The masked entry points are Outcome-free ("quiet"): callers read
// counts() and the backend's own result lanes directly. step(), the
// scalar engine's round, also materializes per-ant Outcomes; its rows
// exist only in worlds built with WorldLanes::kFull (the default). Both
// built-in worlds run one round core behind step() and their masked entry
// points, so the equivalence holds by construction; the home-nest world
// is also held to a literal four-phase reference round
// (tests/reference_round.hpp).
//
// Identity rule: a backend is part of a scenario's identity. Scenarios on
// the default HomeNestBackend serialize exactly as before the seam was
// introduced (no fingerprint drift); any other backend adds an
// "env_backend" field (plus its own config block) to the identity JSON,
// so new worlds get new fingerprints instead of silently colliding with
// cached home-nest results.
#ifndef HH_ENV_BACKEND_HPP
#define HH_ENV_BACKEND_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "env/action.hpp"
#include "env/nest.hpp"

namespace hh::env {

/// The worlds a Simulation can run in. Values are stable identifiers —
/// they appear in spec files and scenario identity JSON by name.
enum class BackendKind : std::uint8_t {
  kHomeNest = 0,  ///< paper Section 2: home nest + k candidates + pairing
  kLattice,       ///< honeycomb lattice, persistent walkers (PAPERS.md)
};

/// Stable spec-file name of a backend kind ("home-nest", "lattice").
[[nodiscard]] const char* backend_name(BackendKind kind);

/// Inverse of backend_name; nullopt for unknown names.
[[nodiscard]] std::optional<BackendKind> backend_from_name(
    std::string_view name);

/// Which per-ant lanes a backend builds.
///   * kFull (the default) — every lane: step()'s per-ant Outcome rows
///     and, on the home-nest world, the knowledge table that model
///     validation and knows() read.
///   * kMasked — only what the masked rounds read: the packed engine's
///     worlds, which never call step() and never validate
///     (core::Simulation builds them). step() and knows() on such a world
///     fail HH_EXPECTS.
/// Either way the masked rounds' results are bit-identical; the lanes
/// differ only in footprint and set-up cost (DESIGN.md §3).
enum class WorldLanes : std::uint8_t { kFull, kMasked };

/// Aggregate statistics for the most recent round (for metrics collection;
/// none of this is observable by ants). Worlds without a recruitment
/// process leave the recruitment fields zero.
struct RoundStats {
  std::uint32_t searches = 0;
  std::uint32_t gos = 0;
  std::uint32_t active_recruits = 0;   ///< recruit(1, ·) calls
  std::uint32_t passive_recruits = 0;  ///< recruit(0, ·) calls
  std::uint32_t idles = 0;
  std::uint32_t successful_recruitments = 0;  ///< |M|
  std::uint32_t self_recruitments = 0;        ///< pairs (a, a)
  /// Recruited ants whose returned nest j differed from their input nest.
  std::uint32_t cross_nest_recruitments = 0;
};

/// Per-ant operation selector for the masked SoA entry points: one byte
/// per ant instead of an Action struct, chosen so mixed-phase rounds
/// (Algorithm 2's interleaved R1-R4 blocks, fault lanes, sleep lanes)
/// stay on the SoA hot path.
enum class MaskedOp : std::uint8_t {
  kIdle = 0,  ///< stay put (crashed or sleeping ant; allow_idle configs)
  kGo,        ///< go(targets[a])
  kRecruit,   ///< recruit(active[a] != 0, targets[a])
  kSearch,    ///< search() (round-1 ants, Byzantine scouts, walkers)
};

/// Abstract world. One instance = one execution (until reset).
class Backend {
 public:
  Backend() = default;
  // Backends are pinned in place: round state holds self-referential
  // scratch and strategy objects, so copies and moves are deleted for
  // every backend. Hold them in place (as Simulation does) or behind
  // unique_ptr when they must relocate.
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  Backend(Backend&&) = delete;
  Backend& operator=(Backend&&) = delete;
  virtual ~Backend();

  /// Which world this is.
  [[nodiscard]] virtual BackendKind kind() const = 0;
  /// Colony size n.
  [[nodiscard]] virtual std::uint32_t num_ants() const = 0;
  /// Number of distinct locations an ant can occupy: k+1 for the
  /// home-nest world (home plus candidates), width*height for a lattice.
  [[nodiscard]] virtual std::uint32_t num_locations() const = 0;
  /// Rounds completed so far (0 before the first step).
  [[nodiscard]] virtual std::uint32_t round() const = 0;
  /// Current location of ant a, as an index in [0, num_locations()).
  [[nodiscard]] virtual NestId location(AntId a) const = 0;
  /// Current population count per location (size num_locations()).
  [[nodiscard]] virtual std::span<const std::uint32_t> counts() const = 0;
  /// Aggregate statistics of the most recent round (metrics collection
  /// only; not observable by ants).
  [[nodiscard]] virtual const RoundStats& last_round_stats() const = 0;

  /// Execute one synchronous round from per-ant Actions — the generic
  /// path every masked entry point must be RNG-equivalent to.
  /// actions.size() must equal num_ants(); the returned span is valid
  /// until the next step. Zero-alloc after construction. Worlds built
  /// with WorldLanes::kMasked hold no Outcome rows and fail HH_EXPECTS.
  virtual const std::vector<Outcome>& step(std::span<const Action> actions) = 0;

  /// One mixed round with NO recruiters (op values kGo/kSearch/kIdle
  /// only); targets is read only at kGo positions. No Outcomes: callers
  /// read counts() (and backend-specific lanes) directly. Zero-alloc.
  virtual void step_masked_go_quiet(std::span<const MaskedOp> op,
                                    std::span<const NestId> targets) = 0;

  /// One mixed round that may contain recruiters, without Outcomes.
  /// Worlds without a recruitment process (the lattice) inherit this
  /// default, which throws ContractViolation — a kernel routed to the
  /// wrong world is a programming error, not a model outcome.
  virtual void step_masked_recruit_quiet(std::span<const MaskedOp> op,
                                         std::span<const std::uint8_t> active,
                                         std::span<const NestId> targets);

  /// Rewind to the pre-round-1 state under a new seed, reusing every
  /// buffer. Allocation-free; result indistinguishable from fresh
  /// construction with `seed`.
  virtual void reset(std::uint64_t seed) = 0;
};

}  // namespace hh::env

#endif  // HH_ENV_BACKEND_HPP
