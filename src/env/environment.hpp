// The synchronous-round environment of paper Section 2.
//
// n probabilistic finite-state machines (ants) execute in numbered rounds.
// Each round every ant performs exactly one call to search(), go(i), or
// recruit(b, i); the environment resolves all calls simultaneously:
//
//   1. every ant's location l(a, r) is updated (searchers land on a
//      uniformly random candidate nest, go-ers move to their target,
//      recruit-ers return to the home nest),
//   2. the recruitment matching M is computed (Algorithm 1 by default),
//   3. end-of-round counts c(i, r) are taken, and
//   4. return values are delivered (counts possibly filtered through the
//      Section 6 noisy Observation): as per-ant Outcomes by step(), or, by
//      the masked SoA rounds, through the state accessors plus (noisy
//      models) the perception lanes.
//
// All three entry points resolve the round in one place, quiet_round();
// step() adds the calls-as-lanes copy before it and the Outcome rows after.
//
// Model-rule enforcement: with EnvironmentConfig::enforce_model (default),
// illegal calls throw hh::ModelViolation — e.g. go(i) to a nest the ant has
// neither visited nor been recruited to (the knowledge interpretation of
// the paper's precondition; see DESIGN.md §2), or recruit(1, i) advertising
// an unknown nest. The per-(ant, nest) knowledge table that check reads
// exists only in worlds built with WorldLanes::kFull (env/backend.hpp);
// the packed engine's trusted worlds skip both.
#ifndef HH_ENV_ENVIRONMENT_HPP
#define HH_ENV_ENVIRONMENT_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "env/action.hpp"
#include "env/backend.hpp"
#include "env/nest.hpp"
#include "env/observation.hpp"
#include "env/pairing.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hh::env {

/// Static description of an environment instance.
struct EnvironmentConfig {
  /// Colony size n. Must be >= 1.
  std::uint32_t num_ants = 0;
  /// qualities[i] is the quality of candidate nest i+1; size() is k >= 1.
  std::vector<double> qualities;
  /// Seed for all environment randomness (search landings, pairing).
  std::uint64_t seed = 1;
  /// Validate the model's call preconditions (throws ModelViolation).
  bool enforce_model = true;
  /// Permit Action::idle() (Section 6 fault/asynchrony extensions only).
  bool allow_idle = false;
};

// RoundStats and MaskedOp (the round-statistics record and the per-ant
// operation selector shared by every backend's masked SoA entry points)
// live in env/backend.hpp with the contract.

/// The home-nest-plus-k-candidate-nests world of paper Section 2. One
/// instance = one execution. `final` matters: the engine hot paths hold
/// this concrete type (Simulation's by-value member, AntPack's observe
/// parameters), so their calls through the Backend contract devirtualize.
class HomeNestBackend final : public Backend {
 public:
  /// Construct with an explicit pairing model (nullptr: the default
  /// PermutationPairing) and observation noise (default: exact). `lanes` =
  /// kMasked builds no Outcome rows, no knowledge table and no call lanes
  /// (the packed engine's world); it requires cfg.enforce_model == false,
  /// since validation reads the table.
  explicit HomeNestBackend(
      EnvironmentConfig cfg, std::unique_ptr<PairingModel> pairing = nullptr,
      const NoiseConfig& noise = {}, WorldLanes lanes = WorldLanes::kFull);
  ~HomeNestBackend() override = default;

  /// Execute one synchronous round. actions[a] is ant a's single call for
  /// this round; actions.size() must equal num_ants(). Returns one Outcome
  /// per ant (reference valid until the next step()). Throws ModelViolation
  /// for illegal calls when enforce_model is set. A kMasked world holds no
  /// Outcome rows: step() fails HH_EXPECTS there. The round is the masked
  /// round over the calls copied into per-ant lanes, so every accessor
  /// below (the recruit-result lane, the successful recruiters and the
  /// perception lanes included) reads this round afterwards.
  ///
  /// Hot-path invariant: performs ZERO heap allocations after construction
  /// (all round state — outcomes, requests, pairing scratch — is owned by
  /// this object and reused; the only allocating path is the throw on a
  /// model violation). tests/test_hotpath.cpp asserts this with a
  /// counting operator new.
  const std::vector<Outcome>& step(std::span<const Action> actions) override;

  /// Rewind to the pre-round-1 state under a new seed, reusing every
  /// buffer: all ants home, counts/knowledge/stats cleared, round() == 0,
  /// RNG reseeded. A reset environment is indistinguishable from a freshly
  /// constructed one with `seed` in its config — the arena-reuse invariant
  /// (DESIGN.md §4) that lets Runner workers rerun trials without paying
  /// construction. Allocation-free.
  void reset(std::uint64_t seed) override;

  // --- masked SoA entry points --------------------------------------------
  // Any round in SoA form: op[a] selects ant a's call (see MaskedOp),
  // targets[a] its go destination or advertised nest, active[a] its b for
  // recruits. A colony-uniform round is just a masked round whose op lane
  // is constant. The same round as step() with the corresponding action
  // vector, minus the per-ant Outcome array, so the packed engine keeps
  // the zero-allocation contract for every round composition (per-ant
  // phase lanes, fault and sleep lanes) under every observation model.
  // tests/test_environment.cpp holds both forms and step() to a literal
  // four-phase reference round under every pairing model, exact and noisy.
  //
  // Callers read counts(), location(), recruit_results(), the matching
  // views and, under a noisy model, the perceived_counts()/
  // perceived_qualities() lanes directly. (_quiet: no Outcomes, unlike
  // step().)

  /// One round that may contain recruiters. After it, recruit_results()
  /// and successful_recruiters() hold what the packs read, and
  /// recruited_by_ant()/recruit_succeeded_ant() give the ant-indexed view
  /// of the matching.
  void step_masked_recruit_quiet(std::span<const MaskedOp> op,
                                 std::span<const std::uint8_t> active,
                                 std::span<const NestId> targets) override;

  /// One round with NO recruiters (op values kGo/kSearch/kIdle only): the
  /// round with an empty `active` lane. The request set is empty, and
  /// pairing an empty set draws nothing. `targets` is read only at kGo
  /// positions.
  void step_masked_go_quiet(std::span<const MaskedOp> op,
                            std::span<const NestId> targets) override;

  // --- inspection (environment's-eye view; not visible to ants) ---

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kHomeNest;
  }
  /// Colony size n.
  [[nodiscard]] std::uint32_t num_ants() const override {
    return cfg_.num_ants;
  }
  /// Number of candidate nests k.
  [[nodiscard]] std::uint32_t num_nests() const {
    return static_cast<std::uint32_t>(cfg_.qualities.size());
  }
  /// k+1: the home nest plus the candidates.
  [[nodiscard]] std::uint32_t num_locations() const override {
    return num_nests() + 1;
  }
  /// Rounds completed so far (0 before the first step()).
  [[nodiscard]] std::uint32_t round() const override { return round_; }
  /// Current location l(a, r) of ant a.
  [[nodiscard]] NestId location(AntId a) const override;
  /// Current true population count c(i, r); i in [0, k].
  [[nodiscard]] std::uint32_t count(NestId i) const;
  /// All current counts c(·, r), indexed by nest (size k+1).
  [[nodiscard]] std::span<const std::uint32_t> counts() const override {
    return count_;
  }
  /// True quality q(i) of candidate nest i in [1, k].
  [[nodiscard]] double quality(NestId i) const;
  /// All true qualities; nest i's quality is at index i-1 (size k).
  [[nodiscard]] std::span<const double> qualities() const {
    return cfg_.qualities;
  }
  /// Ant-indexed view of the LAST ROUND's matching: the AntId that
  /// recruited `a`, or kNotRecruited — including when `a` made no
  /// recruit() call, for every ant after a round with no recruit calls
  /// at all (its matching is empty by definition), and before the first
  /// round. Translates the pairing scratch's request-position indices by
  /// a binary search over the request rows, whose ant ids ascend: every
  /// round packs them in ant order. O(log m) per call and no per-ant
  /// lane — only tests and diagnostics call it; the packs read
  /// recruit_results() and successful_recruiters().
  [[nodiscard]] std::int32_t recruited_by_ant(AntId a) const;
  /// Ant-indexed view: whether `a` successfully recruited someone in the
  /// last round (same lookup as recruited_by_ant()).
  [[nodiscard]] bool recruit_succeeded_ant(AntId a) const;
  /// The ants that appear as the RECRUITER in a pair of the last round's
  /// matching, in request order (each at most once — matching validity);
  /// empty after a round without pairs and after reset(). Valid after
  /// every round, step() included; lets the driver attribute tandem runs
  /// vs transports over the successes alone instead of scanning every
  /// ant.
  [[nodiscard]] std::span<const AntId> successful_recruiters() const {
    return success_ants_;
  }
  /// recruit_results()[a] = the recruit(b, i) return value j for every
  /// ant whose call was a recruit in the last round: the recruiter's
  /// advertised nest when `a` was recruited, a's own target otherwise.
  /// Valid after every round, step() included. Entries of ants that made no
  /// recruit() call hold no return value (they are stale), so callers
  /// must consult it only for their recruit lanes. One sequential lane
  /// load where recruited_by_ant() searches the request rows and then
  /// chases the recruiter's row.
  [[nodiscard]] std::span<const NestId> recruit_results() const {
    return recruit_result_;
  }
  /// perceived_counts()[a] = the count ant a's call returned in the last
  /// round under a noisy observation model: the perceived count of
  /// the nest a searched or went to, or of the home nest for a recruit.
  /// perceived_qualities()[a] likewise holds the perceived quality of the
  /// nest a searched or went to. Entries of ants whose call returned no
  /// such value (idle ants; a recruit's quality) are stale. Both spans
  /// are EMPTY under exact observation: a caller then reads counts() and
  /// qualities() at the ant's nest, which is what the call returned.
  [[nodiscard]] std::span<const std::uint32_t> perceived_counts() const {
    return perceived_count_;
  }
  /// See perceived_counts().
  [[nodiscard]] std::span<const double> perceived_qualities() const {
    return perceived_quality_;
  }
  /// Whether ant a has knowledge of nest i (visited or been recruited to).
  /// A kMasked world keeps no knowledge table: knows() fails HH_EXPECTS.
  [[nodiscard]] bool knows(AntId a, NestId i) const;
  /// Stats of the most recent round.
  [[nodiscard]] const RoundStats& last_round_stats() const override {
    return stats_;
  }
  /// The active pairing model (for reports).
  [[nodiscard]] const PairingModel& pairing_model() const { return *pairing_; }

 private:
  /// request_of() sentinel: the ant made no recruit() call last round.
  static constexpr std::uint32_t kNoRequest = 0xffffffffu;

  /// The position of ant a's row in requests_ (the last round's recruit
  /// calls, in ascending ant order), or kNoRequest.
  [[nodiscard]] std::uint32_t request_of(AntId a) const;
  void validate(AntId a, const Action& action) const;
  void grant_knowledge(AntId a, NestId i);
  /// Whether this world keeps the knowledge table, the Outcome rows and
  /// the call lanes.
  [[nodiscard]] bool full_lanes() const { return lanes_ == WorldLanes::kFull; }

  /// The round, behind every entry point: one ant-order pass does
  /// validation (when enforced), classification, the search draws,
  /// request packing AND the count census, then the pairing runs over the
  /// packed active flags, record_matching() does the bookkeeping, and
  /// under a noisy model perceive() fills the perception lanes. An empty
  /// `active` lane marks a recruit-free round (no kRecruit in op;
  /// ContractViolation otherwise).
  void quiet_round(std::span<const MaskedOp> op,
                   std::span<const std::uint8_t> active,
                   std::span<const NestId> targets);
  /// The matching bookkeeping after the round's pairing: walks the
  /// matched pairs only — successful_recruiters(), recruit_results() for
  /// the recruited ants, tandem-run knowledge (full worlds), and stats_'s
  /// pair/self/cross-nest counts. Expects the round's first pass to have
  /// stored each recruit ant's own target in recruit_result_.
  void record_matching();
  /// The perception pass of a round under a noisy model: each non-idle
  /// ant's perceived count and quality, in ant order (see
  /// perceived_counts()).
  void perceive(std::span<const MaskedOp> op);

  EnvironmentConfig cfg_;
  WorldLanes lanes_;
  std::unique_ptr<PairingModel> pairing_;
  Observation observation_;
  util::Rng rng_;
  // Stable key for counter-based pairing streams, derived from cfg_.seed
  // at construction AND reset (identically — the arena-reuse invariant).
  // Passed to every pairing call via PairingCtx together with the 1-based
  // round number; the sequential models ignore it.
  std::uint64_t pairing_seed_ = 0;

  std::uint32_t round_ = 0;
  std::vector<NestId> location_;        // l(a, r), indexed by ant
  std::vector<std::uint32_t> count_;    // c(i, r), indexed by nest (0..k)
  // (k+1) slots per ant, flattened. uint8_t rather than vector<bool>:
  // branch-free byte loads/stores on the validation and knowledge paths.
  // Empty in a kMasked world, as are outcomes_ and the call lanes.
  std::vector<std::uint8_t> knowledge_;
  std::vector<Outcome> outcomes_;       // step()'s rows, reused each round
  // step()'s calls as the round's op/active/target lanes (6 B/ant).
  std::vector<MaskedOp> call_op_;
  std::vector<std::uint8_t> call_active_;
  std::vector<NestId> call_target_;
  // The last round's recruit calls in ant order (so their ant ids
  // ascend); empty before the first round, after a recruit-free round
  // and after reset().
  std::vector<RecruitRequest> requests_;
  PairingScratch pairing_scratch_;      // reused each round
  // Per-round results of every round (see the accessors):
  // success_ants_ holds this round's successful recruiters;
  // recruit_result_[a] holds ant a's recruit() return value j. The first
  // pass stores each recruit ant's own target, and the matching-
  // bookkeeping walk over the pairs fills the rest — capacity reserved
  // at construction, zero allocations per round.
  std::vector<AntId> success_ants_;
  std::vector<NestId> recruit_result_;
  // The perception lanes (see perceived_counts()): sized n for noisy
  // models at construction, empty for the exact one.
  std::vector<std::uint32_t> perceived_count_;
  std::vector<double> perceived_quality_;
  RoundStats stats_;
};

/// The pre-seam name for the default backend. Kept as a first-class alias:
/// "Environment" is this world's name throughout the paper commentary and
/// the per-object ant API (core::Ant::observe takes one), and the alias
/// keeps those call sites honest without a mass rename.
using Environment = HomeNestBackend;

}  // namespace hh::env

#endif  // HH_ENV_ENVIRONMENT_HPP
