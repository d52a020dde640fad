// The simulation driver: wires a Colony to an Environment and runs
// synchronous rounds until the colony converges (per ConvergenceDetector)
// or a round cap is hit. Supports the Section 6 extensions — noisy
// observation, crash/Byzantine faults, partial synchrony, alternative
// pairing models — each switched on through SimulationConfig.
#ifndef HH_CORE_SIMULATION_HPP
#define HH_CORE_SIMULATION_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/colony.hpp"
#include "core/convergence.hpp"
#include "env/environment.hpp"
#include "env/faults.hpp"
#include "env/lattice.hpp"
#include "env/observation.hpp"
#include "env/pairing.hpp"
#include "env/scheduler.hpp"

namespace hh::core {

class AntPack;
struct AlgorithmSpec;  // core/registry.hpp

/// Which colony engine executes the ants.
///
/// Both engines produce BIT-IDENTICAL RunResults for the same config and
/// seed (tests/test_ant_pack.cpp); they differ only in speed and
/// generality:
///   * kScalar — the per-object reference path: one polymorphic Ant per
///     ant, virtual decide()/observe() per round. Handles every extension
///     (faults, partial synchrony, custom colonies) and validates model
///     rules when enforce_model is set.
///   * kPacked — the struct-of-arrays fast path (core::AntPack): the whole
///     colony as parallel state arrays, one non-virtual pass per round,
///     zero allocations in the round loop (unless record_trajectories
///     snapshots are requested). Covers every built-in algorithm —
///     optimal's per-ant phase machine included — every crash/Byzantine
///     fault plan (pack-level fault lanes), every convergence mode, noisy
///     observation, and partial synchrony (the driver pre-draws each
///     round's awake mask and the pack idles sleepers through its per-ant
///     phase lanes); caller-built colonies are the remaining scalar-only
///     case. Skips model validation (the packed FSMs are trusted — the
///     reference path exists to validate semantics).
///   * kAuto — kPacked whenever eligible, else kScalar. The default:
///     large sweeps get the fast path, and any fallback is LOUD — the
///     engine that ran and the reason land on RunResult::engine /
///     engine_fallback.
enum class EngineKind : std::uint8_t { kAuto, kScalar, kPacked };

/// Stable engine name for reports/tables.
[[nodiscard]] std::string_view engine_name(EngineKind kind);

/// Everything needed to reproduce one execution (copyable; a simulation is
/// a deterministic function of this struct plus the algorithm choice).
struct SimulationConfig {
  /// Colony size n (>= 1).
  std::uint32_t num_ants = 0;
  /// qualities[i] is candidate nest i+1's quality; size() = k >= 1.
  std::vector<double> qualities;
  /// Master seed; environment, scheduler, fault plan, and per-ant streams
  /// are derived from it.
  std::uint64_t seed = 1;
  /// Round cap; 0 = automatic (generous multiple of the theoretical bound).
  std::uint32_t max_rounds = 0;
  /// Extra consecutive rounds the agreement must hold before convergence
  /// is declared (the HouseHunting predicate is "for all r >= T").
  std::uint32_t stability_rounds = 0;
  /// Fraction of correct ants allowed to disagree (0 = strict unanimity).
  /// Use a positive value under Byzantine faults: persistent adversaries
  /// keep a small rotating pool of correct ants kidnapped at any instant.
  double convergence_tolerance = 0.0;
  /// Validate every call against the model rules (throws ModelViolation).
  bool enforce_model = true;
  /// Record per-round trajectories (population counts, commitment census,
  /// round stats). Costs memory; off for large sweeps.
  bool record_trajectories = false;
  /// Section 6 extensions.
  double skip_probability = 0.0;  ///< partial synchrony: P[ant misses round]
  env::NoiseConfig noise;         ///< noisy perception
  env::FaultConfig faults;        ///< crash / Byzantine ants
  env::PairingKind pairing = env::PairingKind::kPermutation;
  /// Colony engine selection (see EngineKind). kAuto picks the packed
  /// fast path when the algorithm has one and the config is eligible;
  /// kPacked demands it (throws std::invalid_argument otherwise); kScalar
  /// forces the per-object reference path.
  EngineKind engine = EngineKind::kAuto;
  /// Which world the colony runs in (env/backend.hpp). The default
  /// home-nest world is the paper's model and serializes exactly as
  /// before the backend seam existed; any other backend is part of the
  /// scenario's identity (new fingerprint vocabulary — DESIGN.md §9).
  /// Algorithms gate on it through Capabilities::backends: a mismatch is
  /// a hard std::invalid_argument on BOTH engines, never a silent
  /// fallback. Faults and noise are home-nest extensions; combining them
  /// with another backend also throws.
  env::BackendKind env_backend = env::BackendKind::kHomeNest;
  /// Lattice-world geometry and motility lanes (read only when
  /// env_backend == kLattice). Lattice scenarios must declare exactly one
  /// pseudo-nest quality (`qualities == {q}`, q > 0): the target site
  /// doubles as nest 1 for convergence and winner bookkeeping.
  env::LatticeConfig lattice;

  /// Convenience: k good nests of quality 1 except `bad` nests of quality 0
  /// placed at the end.
  [[nodiscard]] static std::vector<double> binary_qualities(std::uint32_t k,
                                                            std::uint32_t bad);
};

/// Per-round recordings (only when record_trajectories is set).
struct Trajectories {
  /// counts[r][i] = physical population c(i, r+1), i in [0, k].
  std::vector<std::vector<std::uint32_t>> counts;
  /// committed[r][i] = number of correct ants committed to nest i.
  std::vector<std::vector<std::uint32_t>> committed;
  /// Environment round statistics per round.
  std::vector<env::RoundStats> round_stats;
  /// Successful recruitments per round split by the recruiter's state:
  /// tandem runs (recruiter not finalized) vs direct transports
  /// (recruiter finalized). Section 6 suggests distinguishing the two for
  /// a fine-grained runtime analysis — transports are ~3x faster [21].
  std::vector<std::uint32_t> tandem_successes;
  std::vector<std::uint32_t> transport_successes;
};

/// Outcome of a run.
struct RunResult {
  /// The engine that actually executed the run — kScalar or kPacked,
  /// never kAuto. With engine=kAuto in the config, check engine_fallback
  /// to see WHY a run landed on the reference path.
  EngineKind engine = EngineKind::kScalar;
  /// Why an engine=kAuto config fell back to the per-object path (empty
  /// when the packed engine ran, or when scalar was explicitly
  /// requested). Makes silent fallbacks observable — sweeps can assert
  /// on it instead of discovering a 3x slowdown in a profile.
  std::string engine_fallback;
  bool converged = false;
  /// Round at which the winning agreement began (valid when converged).
  std::uint32_t rounds = 0;
  /// Rounds actually executed (equals `rounds + stability_rounds` when
  /// converged; max_rounds otherwise).
  std::uint32_t rounds_executed = 0;
  env::NestId winner = env::kHomeNest;
  double winner_quality = 0.0;
  /// Total successful recruitments across the run (|M| summed).
  std::uint64_t total_recruitments = 0;
  /// Split of total_recruitments by recruiter state (see Trajectories).
  std::uint64_t total_tandem_runs = 0;
  std::uint64_t total_transports = 0;
  /// Lattice backend only: first_passage[a] = round ant a first stood on
  /// the target site (1-based; 0 = never), indexed by ant. Empty on the
  /// home-nest backend. NOT part of TrialStats or result-store records
  /// (the fixed-size cache format predates it); consume it from direct
  /// runs, e.g. through analysis::first_passage_summary.
  std::vector<std::uint32_t> first_passage;
  Trajectories trajectories;  ///< empty unless record_trajectories
};

/// One execution: a colony in an environment. Use run() for the common
/// case or step() to drive round by round (examples do this to render
/// timelines).
class Simulation {
 public:
  /// Build the environment and machinery from `config` and take ownership
  /// of `colony` (which must have config.num_ants ants). `mode` defaults
  /// to the algorithm's natural convergence notion when omitted. An
  /// explicit colony always runs on the per-object engine (the caller may
  /// have built arbitrary ants); config.engine is ignored here, and any
  /// non-kScalar request is recorded as an engine fallback on the
  /// RunResult so the substitution stays observable.
  Simulation(const SimulationConfig& config, Colony colony,
             std::optional<ConvergenceMode> mode = std::nullopt);

  /// Convenience: build the colony for `kind` internally. Sugar over the
  /// AlgorithmSpec constructor with the built-in spec for `kind` — engine
  /// selection follows config.engine through the same capability diff.
  Simulation(const SimulationConfig& config, AlgorithmKind kind,
             const AlgorithmParams& params = {});

  /// Registry-v2 path: assemble the engine from an AlgorithmSpec
  /// (core/registry.hpp). Engine selection is a data-driven diff of the
  /// config against spec.capabilities (core/capabilities.hpp): with
  /// kAuto, any gap lands the run on the spec's colony factory and the
  /// joined gap list on engine_fallback(); with kPacked, a gap throws
  /// std::invalid_argument naming the exact capabilities missing. The
  /// spec must carry a colony factory (std::invalid_argument otherwise).
  Simulation(const SimulationConfig& config, const AlgorithmSpec& spec,
             const AlgorithmParams& params = {});

  ~Simulation();

  /// Execute one round. Returns true once the colony has converged
  /// (sticky; further steps are allowed and keep executing rounds).
  bool step();

  /// Run until convergence (+ stability window) or the round cap.
  /// Continues from the current round if step() was called before.
  [[nodiscard]] RunResult run();

  /// Rewind this simulation to round 0 under a new master seed, reusing
  /// every buffer (environment, pack lanes, detector) instead of
  /// reconstructing — the arena-reuse path Runner workers use to amortize
  /// per-trial construction away (DESIGN.md §4). A reset simulation is
  /// BIT-IDENTICAL to a freshly constructed one with the same config and
  /// `seed` (tests/test_resume.cpp pins this). Returns false — leaving the
  /// simulation untouched — when the engine cannot reset in place (the
  /// per-object path's polymorphic ants carry no reset hook); callers
  /// reconstruct then.
  [[nodiscard]] bool reset(std::uint64_t seed);

  // --- inspection ---
  /// The world this simulation runs in (any backend).
  [[nodiscard]] const env::Backend& world() const { return *world_; }
  /// The home-nest world. HH_EXPECTS the home-nest backend — callers on
  /// other backends must use world() (the seam exists so they can). On
  /// the packed engine it holds only the masked rounds' lanes
  /// (env::WorldLanes::kMasked): knows() fails HH_EXPECTS there.
  [[nodiscard]] const env::Environment& environment() const;
  /// The per-object colony. On the packed engine this holds no ants (the
  /// state lives in SoA arrays) — use algorithm()/num_ants()/
  /// committed_census(), which work on both engines.
  [[nodiscard]] const Colony& colony() const { return colony_; }
  /// True when this simulation runs on the packed SoA engine.
  [[nodiscard]] bool packed() const { return pack_ != nullptr; }
  /// The engine executing this simulation (kScalar or kPacked).
  [[nodiscard]] EngineKind engine_used() const {
    return packed() ? EngineKind::kPacked : EngineKind::kScalar;
  }
  /// Why an engine=kAuto config fell back to scalar ("" otherwise); also
  /// carried on every RunResult (see RunResult::engine_fallback).
  [[nodiscard]] const std::string& engine_fallback() const {
    return engine_fallback_;
  }
  /// The algorithm's registry name (valid on both engines).
  [[nodiscard]] std::string_view algorithm() const {
    return colony_.algorithm;
  }
  /// Colony size n (valid on both engines, unlike colony().size()).
  [[nodiscard]] std::uint32_t num_ants() const { return config_.num_ants; }
  [[nodiscard]] std::uint32_t round() const { return world_->round(); }
  [[nodiscard]] bool converged() const { return detector_.converged(); }
  [[nodiscard]] const ConvergenceDetector& detector() const { return detector_; }
  /// Number of correct ants committed to each nest (size k+1).
  [[nodiscard]] std::vector<std::uint32_t> committed_census() const;
  /// The effective round cap for this simulation.
  [[nodiscard]] std::uint32_t max_rounds() const { return max_rounds_; }

  /// The round cap used when config.max_rounds == 0: a generous multiple
  /// of the theoretical bound (home nest: O(k log n); lattice: cover
  /// time), saturated at UINT32_MAX. A pure function of the config.
  [[nodiscard]] static std::uint32_t auto_max_rounds(
      const SimulationConfig& config);

 private:
  /// Exactly one of `colony` (per-object engine) or `pack` (packed
  /// engine) is populated; built once by build_engine().
  struct EngineParts {
    Colony colony;
    std::unique_ptr<AntPack> pack;
    /// Why kAuto fell back to the per-object engine ("" = no fallback).
    std::string fallback;
  };
  static EngineParts build_engine(const SimulationConfig& config,
                                  const AlgorithmSpec& spec,
                                  const AlgorithmParams& params);

  /// Primary constructor.
  Simulation(const SimulationConfig& config, EngineParts engine,
             ConvergenceMode mode);

  bool step_scalar();
  bool step_packed();
  /// The packed lattice driver: rounds run straight off the backend's
  /// reached lanes (AntPack's kernel interface is home-nest-shaped, so
  /// the WalkerPack shell is bypassed).
  bool step_lattice_packed();
  /// Census + streak update for lattice runs (both engines); mirrors
  /// core::agreement_from_census over the {walking, reached} census.
  bool update_lattice_convergence();
  void record_round(std::uint32_t tandem, std::uint32_t transport);

  SimulationConfig config_;
  Colony colony_;
  std::unique_ptr<AntPack> pack_;  // non-null iff packed engine
  /// The world. Exactly one of the concrete pointers below aliases it —
  /// the engine hot paths devirtualize through them (both backends are
  /// final).
  std::unique_ptr<env::Backend> world_;
  env::HomeNestBackend* home_ = nullptr;   // == world_ iff home-nest
  env::LatticeBackend* lattice_ = nullptr; // == world_ iff lattice
  env::Scheduler scheduler_;
  util::Rng scheduler_rng_;
  ConvergenceDetector detector_;
  std::uint32_t max_rounds_;
  std::uint64_t total_recruitments_ = 0;
  std::uint64_t total_tandem_runs_ = 0;
  std::uint64_t total_transports_ = 0;
  Trajectories trajectories_;
  std::string engine_fallback_;        // why kAuto fell back ("" = packed)
  std::vector<env::Action> actions_;   // reused per round (scalar engine)
  std::vector<bool> awake_;            // reused per round (scalar engine)
  std::vector<std::uint8_t> awake_mask_;       // this round's (packed psync)
  std::vector<std::uint8_t> next_awake_mask_;  // next round's (packed psync)
  std::vector<std::uint32_t> census_;  // detector census, reused per round
  std::vector<std::uint8_t> recruit_active_;   // reused per round (packed)
  std::vector<env::MaskedOp> masked_op_;       // reused per round (packed)
  std::vector<env::NestId> masked_targets_;    // reused per round (packed)
};

}  // namespace hh::core

#endif  // HH_CORE_SIMULATION_HPP
