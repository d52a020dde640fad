#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/ant_pack.hpp"
#include "core/capabilities.hpp"
#include "core/registry.hpp"
#include "util/contracts.hpp"

namespace hh::core {

std::string_view engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAuto: return "auto";
    case EngineKind::kScalar: return "scalar";
    case EngineKind::kPacked: return "packed";
  }
  HH_ASSERT(false);
  return "?";
}

std::vector<double> SimulationConfig::binary_qualities(std::uint32_t k,
                                                       std::uint32_t bad) {
  HH_EXPECTS(k >= 1);
  HH_EXPECTS(bad < k);  // the paper assumes at least one good nest
  std::vector<double> q(k, 1.0);
  for (std::uint32_t i = k - bad; i < k; ++i) q[i] = 0.0;
  return q;
}

namespace {

// Seed-derivation tags shared by construction and reset(): the two paths
// must derive identical sub-seeds or reset-and-rerun would diverge from a
// fresh construction.
constexpr std::uint64_t kEnvSeedTag = 0xE1717;
constexpr std::uint64_t kColonySeedTag = 0xC0107;
constexpr std::uint64_t kSchedulerSeedTag = 0x5C4ED;
constexpr std::uint64_t kFaultSeedTag = 0xFA17;

env::EnvironmentConfig make_env_config(const SimulationConfig& config,
                                       bool trusted_engine) {
  env::EnvironmentConfig ec;
  ec.num_ants = config.num_ants;
  ec.qualities = config.qualities;
  ec.seed = util::mix_seed(config.seed, kEnvSeedTag);
  // The packed engine's FSMs are trusted (validation belongs to the
  // reference path); skipping it changes no observable output — the model
  // checks are side-effect-free — only speed.
  ec.enforce_model = config.enforce_model && !trusted_engine;
  // Idle is only legal in the fault/asynchrony extensions.
  ec.allow_idle = config.faults.any() || config.skip_probability > 0.0;
  return ec;
}

std::uint64_t colony_seed(const SimulationConfig& config) {
  return util::mix_seed(config.seed, kColonySeedTag);
}

/// The per-execution fault assignment (shared derivation between the two
/// engines: the packed fault lanes must see the very plan the scalar
/// wrappers would).
env::FaultPlan sample_fault_plan(const SimulationConfig& config,
                                 std::uint64_t seed) {
  return config.faults.any()
             ? env::FaultPlan::sample(config.num_ants, config.faults,
                                      util::mix_seed(seed, kFaultSeedTag))
             : env::FaultPlan::none(config.num_ants);
}

/// An ant-less colony shell for the packed engine (keeps colony().algorithm
/// and the fault-plan invariants intact; the ant state lives in the pack).
Colony packed_colony_shell(std::string algorithm) {
  Colony colony;
  colony.algorithm = std::move(algorithm);
  colony.faults = env::FaultPlan::none(0);
  return colony;
}

/// Why `config` cannot run on `spec`'s packed engine: the data-driven
/// diff of the config against the spec's DECLARED capability matrix
/// (core/capabilities.hpp). No other code decides kAuto eligibility.
std::vector<std::string> engine_gaps(const SimulationConfig& config,
                                     const AlgorithmSpec& spec) {
  if (!spec.pack) {
    return {"algorithm '" + spec.name + "' has no packed implementation"};
  }
  return capability_gaps(config, spec.mode, spec.capabilities);
}

/// Build the world `config` names. The home-nest world keeps its exact
/// pre-seam construction (strategies, seed derivation); the lattice world
/// derives its seed through the same kEnvSeedTag so a given master seed
/// means the same thing on every backend. The packed engine's world holds
/// only the lanes the masked rounds read: it never calls step() and never
/// validates, so it builds no Outcome rows and no knowledge table.
std::unique_ptr<env::Backend> make_world(const SimulationConfig& config,
                                         bool trusted_engine) {
  const env::WorldLanes lanes =
      trusted_engine ? env::WorldLanes::kMasked : env::WorldLanes::kFull;
  if (config.env_backend == env::BackendKind::kLattice) {
    return std::make_unique<env::LatticeBackend>(
        config.num_ants, config.lattice,
        util::mix_seed(config.seed, kEnvSeedTag), lanes);
  }
  return std::make_unique<env::HomeNestBackend>(
      make_env_config(config, trusted_engine),
      env::make_pairing_model(config.pairing),
      env::make_observation_model(config.noise), lanes);
}

/// The cached built-in AlgorithmSpec for `kind` (the kind constructor
/// runs per trial; the spec is immutable data, built once).
const AlgorithmSpec& builtin_spec_cached(AlgorithmKind kind) {
  static const std::vector<AlgorithmSpec> specs = [] {
    std::vector<AlgorithmSpec> out;
    for (AlgorithmKind k : all_algorithm_kinds()) {
      // Indexable by enum value: declaration order == registry order.
      HH_ASSERT(static_cast<std::size_t>(k) == out.size());
      out.push_back(builtin_algorithm_spec(k));
    }
    return out;
  }();
  return specs[static_cast<std::size_t>(kind)];
}

}  // namespace

std::uint32_t Simulation::auto_max_rounds(const SimulationConfig& config) {
  double bound = 0.0;
  if (config.env_backend == env::BackendKind::kLattice) {
    // A colony's slowest first passage is bounded by per-walker cover
    // time, O(V log V) on a bounded-degree graph — the cap is a generous
    // multiple of that, not the k-log-n recruitment bound below.
    const auto sites = static_cast<double>(config.lattice.width) *
                       static_cast<double>(config.lattice.height);
    bound = 50.0 * sites * (std::log2(sites) + 2.0) + 1000.0;
  } else {
    // Generous multiple of the worst theoretical bound in play, O(k log n)
    // (Theorem 5.11); a cap, not an expectation — converging runs stop
    // early.
    const double log_n = std::log2(
        static_cast<double>(std::max<std::uint32_t>(config.num_ants, 2)));
    const auto k = static_cast<double>(config.qualities.size());
    bound = 200.0 * (k + 2.0) * (log_n + 2.0) + 1000.0;
  }
  // Huge lattices and huge k push either bound past uint32 range, where
  // the narrowing cast is UB — saturate instead (the cap only has to be
  // generous).
  constexpr double kMax =
      static_cast<double>(std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(std::min(bound, kMax));
}

Simulation::EngineParts Simulation::build_engine(
    const SimulationConfig& config, const AlgorithmSpec& spec,
    const AlgorithmParams& params) {
  if (!spec.colony) {
    throw std::invalid_argument("algorithm spec '" + spec.name +
                                "' has no colony factory");
  }
  // Backend support gates BOTH engines — decision kernels are written for
  // one world, and routing them into another is a programming error the
  // scalar reference path cannot absorb either. Hard error, never a
  // fallback (see Capabilities::backends).
  if (!spec.capabilities.supports(config.env_backend)) {
    throw std::invalid_argument(
        "algorithm '" + spec.name + "' does not run in the '" +
        std::string(env::backend_name(config.env_backend)) +
        "' environment backend (its declared worlds gate both engines)");
  }
  if (config.env_backend != env::BackendKind::kHomeNest &&
      (config.faults.any() || config.noise.any())) {
    throw std::invalid_argument(
        "the '" + std::string(env::backend_name(config.env_backend)) +
        "' backend models no faults or observation noise; clear "
        "config.faults/config.noise");
  }
  const std::vector<std::string> gaps = engine_gaps(config, spec);
  if (config.engine == EngineKind::kPacked && !gaps.empty()) {
    throw std::invalid_argument(
        "engine=packed requested but " + join_gaps(gaps) +
        "; use kAuto to fall back to the per-object engine");
  }
  if (config.engine != EngineKind::kScalar && gaps.empty()) {
    const bool faulted = config.faults.any();
    const env::FaultPlan plan =
        faulted ? sample_fault_plan(config, config.seed) : env::FaultPlan{};
    return EngineParts{
        packed_colony_shell(spec.name),
        spec.pack(config, colony_seed(config), params,
                  faulted ? &plan : nullptr),
        {}};
  }
  // kScalar by request carries no fallback reason; a degraded kAuto does.
  return EngineParts{
      spec.colony(config, sample_fault_plan(config, config.seed),
                  colony_seed(config), params),
      nullptr,
      config.engine == EngineKind::kAuto ? join_gaps(gaps) : std::string{}};
}

Simulation::Simulation(const SimulationConfig& config, EngineParts engine,
                       ConvergenceMode mode)
    : config_(config),
      colony_(std::move(engine.colony)),
      pack_(std::move(engine.pack)),
      world_(make_world(config, pack_ != nullptr)),
      scheduler_(config.skip_probability),
      scheduler_rng_(util::mix_seed(config.seed, kSchedulerSeedTag)),
      detector_(mode, config.stability_rounds, config.convergence_tolerance),
      max_rounds_(config.max_rounds ? config.max_rounds
                                    : auto_max_rounds(config)) {
  HH_EXPECTS(config.num_ants >= 1);
  HH_EXPECTS(!config.qualities.empty());
  if (world_->kind() == env::BackendKind::kLattice) {
    lattice_ = static_cast<env::LatticeBackend*>(world_.get());
    // The lattice's convergence/winner bookkeeping runs over pseudo-nest
    // 1 ("reached the target"); anything else in qualities would imply
    // candidate nests the world does not have.
    HH_EXPECTS(config.qualities.size() == 1 && config.qualities[0] > 0.0);
  } else {
    home_ = static_cast<env::HomeNestBackend*>(world_.get());
    census_.resize(config.qualities.size() + 1);
  }
  engine_fallback_ = std::move(engine.fallback);
  if (pack_) {
    HH_EXPECTS(pack_->size() == config.num_ants);
    recruit_active_.resize(config.num_ants);
    masked_op_.resize(config.num_ants);
    masked_targets_.resize(config.num_ants);
    if (config.skip_probability > 0.0) {
      awake_mask_.resize(config.num_ants);
      next_awake_mask_.resize(config.num_ants);
    }
  } else {
    HH_EXPECTS(colony_.size() == config.num_ants);
    actions_.resize(config.num_ants);
    awake_.resize(config.num_ants);
  }
}

Simulation::Simulation(const SimulationConfig& config, Colony colony,
                       std::optional<ConvergenceMode> mode)
    : Simulation(config,
                 EngineParts{std::move(colony), nullptr,
                             // A caller-built colony ignores config.engine
                             // (documented), so BOTH kAuto and kPacked are
                             // effectively fallbacks here — record the
                             // reason rather than reporting a clean
                             // scalar-by-request run.
                             config.engine != EngineKind::kScalar
                                 ? "caller-built colonies run per-object"
                                 : std::string{}},
                 mode.value_or(ConvergenceMode::kCommitment)) {}

Simulation::Simulation(const SimulationConfig& config, AlgorithmKind kind,
                       const AlgorithmParams& params)
    : Simulation(config, builtin_spec_cached(kind), params) {}

Simulation::Simulation(const SimulationConfig& config,
                       const AlgorithmSpec& spec,
                       const AlgorithmParams& params)
    : Simulation(config, build_engine(config, spec, params), spec.mode) {}

Simulation::~Simulation() = default;

bool Simulation::reset(std::uint64_t seed) {
  // Only the packed engine resets: its state is plain lanes with a
  // documented re-derivation. The per-object colony holds polymorphic
  // ants (possibly wrapped in fault shims) with no reset contract.
  if (!pack_) return false;
  // The fault plan is itself a function of the master seed — reinstall
  // before the lane reset so believed-n draws skip the new Byzantine
  // positions exactly as a fresh construction would.
  if (config_.faults.any()) {
    pack_->install_fault_plan(sample_fault_plan(config_, seed));
  }
  if (!pack_->reset(util::mix_seed(seed, kColonySeedTag))) return false;
  // From here the reset cannot fail; every derivation mirrors the
  // constructor's (make_env_config / colony_seed / scheduler seeds).
  config_.seed = seed;
  world_->reset(util::mix_seed(seed, kEnvSeedTag));
  scheduler_rng_.reseed(util::mix_seed(seed, kSchedulerSeedTag));
  detector_.reset();
  total_recruitments_ = 0;
  total_tandem_runs_ = 0;
  total_transports_ = 0;
  trajectories_ = Trajectories{};
  return true;
}

bool Simulation::step() {
  if (pack_) return lattice_ ? step_lattice_packed() : step_packed();
  return step_scalar();
}

bool Simulation::step_scalar() {
  // World-generic: decide/observe and the round itself speak only the
  // Backend contract; just the convergence census at the end is
  // backend-specific.
  const std::uint32_t round = world_->round() + 1;  // 1-based, as in the paper
  for (env::AntId a = 0; a < colony_.size(); ++a) {
    // The scheduler is consulted before the ant: a sleeping ant's state
    // machine is frozen for the round (partial-synchrony extension).
    const bool awake = scheduler_.awake(world_->round(), scheduler_rng_);
    awake_[a] = awake;
    actions_[a] = awake ? colony_.ants[a]->decide(round) : env::Action::idle();
  }

  const std::vector<env::Outcome>& outcomes = world_->step(actions_);
  // Attribute each successful recruitment to a tandem run (recruiter not
  // yet finalized) or a direct transport (finalized recruiter) — the
  // Section 6 fine-grained runtime distinction; transports are ~3x faster
  // in nature but share one model round (Section 2).
  std::uint32_t tandem = 0;
  std::uint32_t transport = 0;
  for (env::AntId a = 0; a < colony_.size(); ++a) {
    if (outcomes[a].recruit_succeeded) {
      if (colony_.ants[a]->finalized()) {
        ++transport;
      } else {
        ++tandem;
      }
    }
    if (awake_[a]) colony_.ants[a]->observe(outcomes[a]);
  }
  record_round(tandem, transport);
  if (lattice_) return update_lattice_convergence();
  return detector_.update(colony_, *home_, census_);
}

bool Simulation::step_lattice_packed() {
  // The walker workload has no per-ant kernel state: an ant searches
  // until the backend's reached lane flips, then idles. So the driver
  // fills the op lanes straight off that lane — scheduler consulted per
  // ant in the same order as step_scalar, which keeps the two engines
  // RNG-identical.
  for (env::AntId a = 0; a < config_.num_ants; ++a) {
    const bool awake = scheduler_.awake(world_->round(), scheduler_rng_);
    masked_op_[a] = awake && !lattice_->reached(a) ? env::MaskedOp::kSearch
                                                   : env::MaskedOp::kIdle;
  }
  lattice_->step_masked_go_quiet(masked_op_, masked_targets_);
  record_round(0, 0);
  return update_lattice_convergence();
}

bool Simulation::update_lattice_convergence() {
  // Mirror of core::agreement_from_census over the lattice's two-slot
  // census {kHomeNest: still walking, 1: reached}: agreement on nest 1
  // exists iff anyone reached, its quality is positive, and the reached
  // count clears the same (1 - tolerance) * correct_total bar.
  std::uint32_t reached = 0;
  std::uint32_t correct_total = 0;
  if (pack_) {
    reached = lattice_->reached_count();
    correct_total = config_.num_ants;  // no fault plans on the lattice
  } else {
    for (env::AntId a = 0; a < colony_.size(); ++a) {
      if (!colony_.correct(a)) continue;
      ++correct_total;
      if (colony_.ants[a]->committed_nest() != env::kHomeNest) ++reached;
    }
  }
  std::optional<env::NestId> agreement;
  if (correct_total > 0 && reached > 0 && config_.qualities[0] > 0.0) {
    const double required = (1.0 - config_.convergence_tolerance) *
                            static_cast<double>(correct_total);
    if (static_cast<double>(reached) >= required) agreement = env::NestId{1};
  }
  return detector_.observe_agreement(agreement, world_->round());
}

bool Simulation::step_packed() {
  // Partial synchrony: each round's awake mask is drawn exactly as
  // step_scalar draws it — same scheduler stream, same ant order, the same
  // awake(r) arguments at round r + 1. Fully synchronous configs keep
  // both masks empty (every ant awake): their draw-free scheduler is
  // never consulted.
  const auto draw_awake = [this](std::vector<std::uint8_t>& mask) {
    for (std::size_t a = 0; a < mask.size(); ++a) {
      mask[a] = scheduler_.awake(home_->round(), scheduler_rng_) ? 1 : 0;
    }
  };
  // Round 1's lanes: every acting ant searches. Every later round's lanes
  // were planned by the previous round's observe_and_plan.
  if (home_->round() == 0) {
    draw_awake(awake_mask_);
    pack_->plan_first_round(awake_mask_, masked_op_, recruit_active_,
                            masked_targets_);
  }
  // One masked round under every observation model. A colony-uniform
  // round is a masked round with a constant op lane.
  home_->step_masked_recruit_quiet(masked_op_, recruit_active_,
                                   masked_targets_);

  // Tandem/transport attribution as in step_scalar; finalized() reflects
  // pre-observe state there (an ant's own observe cannot change another
  // ant's attribution), so attributing before the batch observe is
  // equivalent. The env hands over this round's successful recruiters
  // directly, so attribution touches the successes alone (one batch
  // finalized() count) instead of testing every ant. Every success that
  // is not a transport is a tandem run.
  std::uint32_t transport = 0;
  if (pack_->any_finalized()) {
    transport = pack_->count_finalized(home_->successful_recruiters());
  }
  // Absorb this round and plan the next in one pass. Round r + 1's mask
  // is drawn before that pass rather than at the start of round r + 1:
  // nothing else draws from the scheduler stream in between, so the draws
  // are the same ones.
  draw_awake(next_awake_mask_);
  pack_->observe_and_plan(*home_, awake_mask_, next_awake_mask_, masked_op_,
                          recruit_active_, masked_targets_);
  awake_mask_.swap(next_awake_mask_);
  const std::uint32_t tandem =
      home_->last_round_stats().successful_recruitments - transport;
  record_round(tandem, transport);
  const std::uint32_t correct_total =
      pack_->agreement_census(detector_.mode(), *home_, census_);
  return detector_.update(census_, correct_total, *home_);
}

void Simulation::record_round(std::uint32_t tandem, std::uint32_t transport) {
  total_tandem_runs_ += tandem;
  total_transports_ += transport;
  total_recruitments_ += world_->last_round_stats().successful_recruitments;
  if (config_.record_trajectories) {
    // counts[r] spans the world's locations: k+1 nests on the home-nest
    // backend, width*height sites on a lattice.
    const std::span<const std::uint32_t> counts = world_->counts();
    trajectories_.counts.emplace_back(counts.begin(), counts.end());
    trajectories_.committed.push_back(committed_census());
    trajectories_.round_stats.push_back(world_->last_round_stats());
    trajectories_.tandem_successes.push_back(tandem);
    trajectories_.transport_successes.push_back(transport);
  }
}

RunResult Simulation::run() {
  while (!detector_.converged() && world_->round() < max_rounds_) {
    step();
  }
  RunResult result;
  result.engine = engine_used();
  result.engine_fallback = engine_fallback_;
  result.converged = detector_.converged();
  result.rounds_executed = world_->round();
  result.total_recruitments = total_recruitments_;
  result.total_tandem_runs = total_tandem_runs_;
  result.total_transports = total_transports_;
  if (result.converged) {
    result.rounds = detector_.decision_round();
    result.winner = detector_.winner();
    // Identical to the home-nest backend's quality(winner); phrased off
    // the config so it holds for any backend's pseudo-nests too.
    HH_ASSERT(result.winner >= 1 &&
              result.winner <= config_.qualities.size());
    result.winner_quality = config_.qualities[result.winner - 1];
  }
  if (lattice_) {
    const std::span<const std::uint32_t> fp = lattice_->first_passage();
    result.first_passage.assign(fp.begin(), fp.end());
  }
  result.trajectories = std::move(trajectories_);
  trajectories_ = Trajectories{};
  return result;
}

const env::Environment& Simulation::environment() const {
  HH_EXPECTS(home_ != nullptr);
  return *home_;
}

std::vector<std::uint32_t> Simulation::committed_census() const {
  // Census slots: kHomeNest plus one per (pseudo-)nest — qualities.size()
  // equals num_nests() on the home-nest backend and 1 on the lattice.
  const auto k = static_cast<std::uint32_t>(config_.qualities.size());
  std::vector<std::uint32_t> census(k + 1, 0);
  if (lattice_ && pack_) {
    // The walker pack keeps no lanes of its own; the backend's reached
    // count IS the commitment census.
    census[1] = lattice_->reached_count();
    census[0] = config_.num_ants - census[1];
    return census;
  }
  if (pack_) {
    pack_->committed_census(census);
    return census;
  }
  for (env::AntId a = 0; a < colony_.size(); ++a) {
    if (!colony_.correct(a)) continue;
    const env::NestId nest = colony_.ants[a]->committed_nest();
    HH_ASSERT(nest <= k);
    ++census[nest];
  }
  return census;
}

}  // namespace hh::core
