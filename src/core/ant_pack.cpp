#include "core/ant_pack.hpp"

#include <algorithm>

#include "core/quality_aware_ant.hpp"
#include "core/quorum_ant.hpp"
#include "core/rate_boosted_ant.hpp"
#include "core/simple_ant.hpp"
#include "util/contracts.hpp"

namespace hh::core {

namespace {

/// The Algorithm-3 family (SimpleAnt and its subclasses) as state arrays.
/// All four variants share one FSM and differ only in the
/// recruit-probability rule. The phase is a per-ant lane: under full
/// synchrony every ant stays in lockstep (every round's op lane is
/// constant), but a sleeping ant freezes — it skips both decide and
/// observe, exactly like the scalar ant — so under partial synchrony the
/// colony's phases drift apart and rounds become permanently mixed.
class SimpleFamilyPack final : public AntPack {
 public:
  SimpleFamilyPack(AlgorithmKind kind, std::uint32_t num_ants,
                   std::uint32_t num_nests, std::uint64_t colony_seed,
                   const AlgorithmParams& params, const env::FaultPlan* faults)
      : AntPack(num_ants, num_nests),
        kind_(kind),
        uniform_prob_(params.uniform_recruit_prob),
        n_estimate_error_(params.n_estimate_error) {
    HH_EXPECTS(num_ants >= 1);
    const std::size_t n = num_ants;
    rng_.resize(n, util::Rng(0));
    phase_.resize(n);
    believed_n_.resize(n);
    active_.resize(n);
    count_.resize(n);
    quality_.resize(n);
    if (kind_ == AlgorithmKind::kRateBoosted) {
      initial_k_.resize(n);
      halving_period_.resize(n);
    }
    if (faults != nullptr) install_fault_plan(*faults);
    reset(colony_seed);
  }

  void do_reset(std::uint64_t colony_seed) override {
    const auto num_ants = size();
    reset_commitments();
    std::fill(phase_.begin(), phase_.end(), Phase::kInit);
    for (env::AntId a = 0; a < num_ants; ++a) {
      // Identical stream derivation to make_colony (colony.cpp).
      rng_[a].reseed(util::mix_seed(colony_seed, a, 0xA17));
      // uniform-recruit ignores n and, like its per-object factory, does
      // not draw a belief; Byzantine positions never construct the inner
      // ant at all (no draw); the others draw iff the error is positive.
      believed_n_[a] =
          (kind_ == AlgorithmKind::kUniformRecruit || byzantine(a))
              ? num_ants
              : believed_colony_size(num_ants, n_estimate_error_, rng_[a]);
    }
    std::fill(active_.begin(), active_.end(),
              std::uint8_t{1});  // initially active (Algorithm 3, line 1)
    std::fill(count_.begin(), count_.end(), 0u);
    std::fill(quality_.begin(), quality_.end(), 0.0);
    if (kind_ == AlgorithmKind::kRateBoosted) {
      std::fill(initial_k_.begin(), initial_k_.end(), 0.0);
      for (std::size_t a = 0; a < num_ants; ++a) {
        halving_period_[a] = RateBoostedAnt::halving_period(believed_n_[a]);
      }
    }
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_decide(const env::Environment& env, Acting acting,
                      std::span<env::MaskedOp> op,
                      std::span<std::uint8_t> active,
                      std::span<env::NestId> targets) override {
    // Observe ant a, then overwrite its lanes with its next-round call.
    // observe_one reads no op/target row, so the overwrite is safe. An
    // ant that does not act is frozen: crashed, sleeping, or Byzantine.
    const std::uint32_t next_round = env.round() + 1;
    const std::span<const env::NestId> results = env.recruit_results();
    with_views(env, acting, [&](const auto& seen, const auto& act) {
      for (std::size_t a = 0; a < op.size(); ++a) {
        if (act.acted(a)) observe_one(a, env, seen, results);
        if (act.acts(a)) decide_one(a, next_round, op, active, targets);
      }
    });
  }

 private:
  enum class Phase : std::uint8_t { kInit, kRecruit, kAssess };

  /// The ant's b this recruit round — drawing iff the scalar ant would
  /// (SimpleAnt::decide short-circuits the bernoulli for passive ants).
  /// Forced inline for the same reason as decide_one.
  [[nodiscard, gnu::always_inline]] bool decide_b(std::size_t a,
                                                  std::uint32_t round) {
    return active_[a] != 0 && rng_[a].bernoulli(recruit_probability(a, round));
  }

  /// Lines 2-4: commit to the found nest; bad quality => passive.
  void apply_init(std::size_t a, env::NestId found, std::uint32_t count,
                  double quality) {
    adopt(a, found);
    count_[a] = count;
    quality_[a] = quality;
    if (quality <= 0.0) active_[a] = 0;
    if (kind_ == AlgorithmKind::kRateBoosted) {
      initial_k_[a] = RateBoostedAnt::initial_k_estimate(believed_n_[a], count);
    }
  }

  /// Line 7 / lines 10-13: unconditional nest adoption; a recruited
  /// (or poached) ant becomes active.
  void apply_recruit(std::size_t a, env::NestId j) {
    if (j != nest_[a]) {
      adopt(a, j);
      active_[a] = 1;
    }
  }

  /// Lines 8 / 14 plus nest rejection (see SimpleAnt::observe).
  void apply_assess(std::size_t a, std::uint32_t count, double quality) {
    count_[a] = count;
    quality_[a] = quality;
    if (quality <= 0.0) active_[a] = 0;
  }

  /// kInit -> kRecruit -> kAssess -> kRecruit -> ... (SimpleAnt::observe).
  void advance(std::size_t a) {
    phase_[a] =
        phase_[a] == Phase::kRecruit ? Phase::kAssess : Phase::kRecruit;
  }

  /// One ant's call for `round` (SimpleAnt::decide). Forced inline, like
  /// observe_one: GCC 12 keeps both out of line once observe_decide's loop
  /// has its four instantiations, which turns every ant's observe and
  /// decide into calls.
  [[gnu::always_inline]] void decide_one(std::size_t a, std::uint32_t round,
                                         std::span<env::MaskedOp> op,
                                         std::span<std::uint8_t> active,
                                         std::span<env::NestId> targets) {
    switch (phase_[a]) {
      case Phase::kInit:
        op[a] = env::MaskedOp::kSearch;  // line 2
        break;
      case Phase::kRecruit:
        op[a] = env::MaskedOp::kRecruit;
        active[a] = decide_b(a, round) ? 1 : 0;  // lines 6 / 10
        targets[a] = nest_[a];                   // line 7
        break;
      case Phase::kAssess:
        op[a] = env::MaskedOp::kGo;  // lines 8 / 14
        targets[a] = nest_[a];
        break;
    }
  }

  /// One acting ant's observe (SimpleAnt::observe). A recruit ant's
  /// return is its recruit_results() entry: the recruiter's advertised
  /// nest, or its own target nest_[a] when nobody recruited it — which
  /// apply_recruit treats as no change, since the ant advertised nest_[a].
  template <typename Seen>
  [[gnu::always_inline]] void observe_one(std::size_t a,
                                          const env::Environment& env,
                                          const Seen& seen,
                                          std::span<const env::NestId> results) {
    switch (phase_[a]) {
      case Phase::kInit: {
        const env::NestId found = env.location(static_cast<env::AntId>(a));
        apply_init(a, found, seen.count(a, found), seen.quality(a, found));
        break;
      }
      case Phase::kRecruit:
        apply_recruit(a, results[a]);
        break;
      case Phase::kAssess: {
        const env::NestId nest = nest_[a];
        apply_assess(a, seen.count(a, nest), seen.quality(a, nest));
        break;
      }
    }
    advance(a);
  }

  /// The variant's b-probability, through the scalar ants' own rules
  /// (SimpleAnt / RateBoostedAnt / QualityAwareAnt; UniformRecruitAnt's
  /// is its constant): equivalence requires identical operation order,
  /// not just identical math.
  [[nodiscard]] double recruit_probability(std::size_t a,
                                           std::uint32_t round) const {
    const double base =
        SimpleAnt::proportional_rate(count_[a], believed_n_[a]);
    switch (kind_) {
      case AlgorithmKind::kSimple:
        return base;
      case AlgorithmKind::kUniformRecruit:
        return uniform_prob_;
      case AlgorithmKind::kQualityAware:
        return QualityAwareAnt::quality_weighted_rate(base, quality_[a]);
      case AlgorithmKind::kRateBoosted:
        return RateBoostedAnt::boosted_rate(
            base, RateBoostedAnt::k_estimate_at(initial_k_[a], round,
                                                halving_period_[a]));
      default:
        break;
    }
    HH_ASSERT(false);
    return 0.0;
  }

  AlgorithmKind kind_;
  double uniform_prob_;
  double n_estimate_error_;
  std::vector<Phase> phase_;      // per ant: frozen while asleep/crashed
  std::vector<util::Rng> rng_;              // per-ant private streams
  std::vector<std::uint32_t> believed_n_;   // n~ (== n unless estimate error)
  std::vector<std::uint8_t> active_;
  std::vector<std::uint32_t> count_;
  std::vector<double> quality_;
  std::vector<double> initial_k_;           // rate-boosted: k^
  std::vector<std::uint32_t> halving_period_;  // rate-boosted: tau
};

/// QuorumAnt as state arrays. Both the stage and the recruit/assess phase
/// are per-ant lanes, exactly as in the scalar ant: a sleeping or crashed
/// ant freezes both, and a quorum-met ant's phase parks at kRecruit (the
/// assess observe that locked it is the last one it ever runs) while its
/// decide ignores the phase and recruits forever.
class QuorumPack final : public AntPack {
 public:
  QuorumPack(std::uint32_t num_ants, std::uint32_t num_nests,
             std::uint64_t colony_seed, const AlgorithmParams& params,
             const env::FaultPlan* faults)
      : AntPack(num_ants, num_nests),
        threshold_(quorum_threshold(num_ants, params.quorum_fraction)),
        tandem_rate_(params.quorum_tandem_rate) {
    HH_EXPECTS(num_ants >= 1);
    HH_EXPECTS(tandem_rate_ >= 0.0 && tandem_rate_ <= 1.0);
    rng_.resize(num_ants, util::Rng(0));
    stage_.resize(num_ants);
    phase_.resize(num_ants);
    count_.resize(num_ants);
    if (faults != nullptr) install_fault_plan(*faults);
    reset(colony_seed);
  }

  void do_reset(std::uint64_t colony_seed) override {
    for (env::AntId a = 0; a < size(); ++a) {
      rng_[a].reseed(util::mix_seed(colony_seed, a, 0xA17));
    }
    std::fill(stage_.begin(), stage_.end(),
              static_cast<std::uint8_t>(Stage::kInit));
    std::fill(phase_.begin(), phase_.end(), Phase::kInit);
    std::fill(count_.begin(), count_.end(), 0u);
    reset_commitments();
    finalized_count_ = 0;
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_decide(const env::Environment& env, Acting acting,
                      std::span<env::MaskedOp> op,
                      std::span<std::uint8_t> active,
                      std::span<env::NestId> targets) override {
    // Observe ant a, then overwrite its lanes with its next-round call.
    // observe_one reads no op/target row, so the overwrite is safe. An
    // ant that does not act is frozen: crashed, sleeping, or Byzantine.
    const std::span<const env::NestId> results = env.recruit_results();
    with_views(env, acting, [&](const auto& seen, const auto& act) {
      for (std::size_t a = 0; a < op.size(); ++a) {
        if (act.acted(a)) observe_one(a, env, seen, results);
        if (act.acts(a)) decide_one(a, op, active, targets);
      }
    });
  }

  [[nodiscard]] std::uint32_t count_finalized(
      std::span<const env::AntId> ants) const override {
    if (finalized_count_ == 0) return 0;
    std::uint32_t c = 0;
    for (const env::AntId a : ants) {
      c += static_cast<Stage>(stage_[a]) == Stage::kQuorumMet ? 1u : 0u;
    }
    return c;
  }

 private:
  enum class Stage : std::uint8_t { kInit, kPassive, kPreQuorum, kQuorumMet };
  enum class Phase : std::uint8_t { kInit, kRecruit, kAssess };

  /// The b of QuorumAnt::decide in a recruit-phase round.
  [[nodiscard]] bool decide_b(std::size_t a) {
    switch (static_cast<Stage>(stage_[a])) {
      case Stage::kPassive:
        return false;
      case Stage::kPreQuorum:
        return rng_[a].bernoulli(
            QuorumAnt::tandem_probability(tandem_rate_, count_[a], size()));
      case Stage::kQuorumMet:
        return true;
      case Stage::kInit:
        break;
    }
    HH_ASSERT(false);  // a kInit ant searches; it never decides b
    return false;
  }

  void apply_init(std::size_t a, env::NestId found, std::uint32_t count,
                  double quality) {
    adopt(a, found);
    count_[a] = count;
    stage_[a] = static_cast<std::uint8_t>(quality > 0.0 ? Stage::kPreQuorum
                                                        : Stage::kPassive);
    phase_[a] = Phase::kRecruit;
  }

  /// One ant's call (QuorumAnt::decide). Forced inline, like observe_one
  /// (see SimpleFamilyPack::decide_one).
  [[gnu::always_inline]] void decide_one(std::size_t a,
                                         std::span<env::MaskedOp> op,
                                         std::span<std::uint8_t> active,
                                         std::span<env::NestId> targets) {
    switch (phase_[a]) {
      case Phase::kInit:
        op[a] = env::MaskedOp::kSearch;
        break;
      case Phase::kRecruit:
        // Quorum-met transporters are parked here and decide_b answers
        // true for them without a draw (recruit every round, locked).
        op[a] = env::MaskedOp::kRecruit;
        active[a] = decide_b(a) ? 1 : 0;
        targets[a] = nest_[a];
        break;
      case Phase::kAssess:
        op[a] = env::MaskedOp::kGo;
        targets[a] = nest_[a];
        break;
    }
  }

  /// One acting ant's observe (QuorumAnt::observe). A recruit ant's
  /// return is its recruit_results() entry: the recruiter's advertised
  /// nest, or its own target nest_[a] when nobody recruited it — which
  /// apply_recruit treats as no change, since the ant advertised nest_[a].
  template <typename Seen>
  [[gnu::always_inline]] void observe_one(std::size_t a,
                                          const env::Environment& env,
                                          const Seen& seen,
                                          std::span<const env::NestId> results) {
    // Quorum-met ants recruit forever but their return value is ignored
    // (commitment locked) and their phase stays parked at kRecruit.
    if (static_cast<Stage>(stage_[a]) == Stage::kQuorumMet) return;
    if (static_cast<Stage>(stage_[a]) == Stage::kInit) {
      const env::NestId found = env.location(static_cast<env::AntId>(a));
      apply_init(a, found, seen.count(a, found), seen.quality(a, found));
    } else if (phase_[a] == Phase::kRecruit) {
      apply_recruit(a, results[a]);
      phase_[a] = Phase::kAssess;
    } else {
      apply_assess(a, seen.count(a, nest_[a]));
      phase_[a] = Phase::kRecruit;
    }
  }

  void apply_recruit(std::size_t a, env::NestId j) {
    // j == nest_[a] (not recruited, or recruited to the ant's own nest)
    // changes nothing in any stage — tested first, because it is the
    // common, predictable case and the stage mix is not.
    if (j == nest_[a]) return;
    switch (static_cast<Stage>(stage_[a])) {
      case Stage::kPassive:
        adopt(a, j);  // recruited: follow the tandem run
        stage_[a] = static_cast<std::uint8_t>(Stage::kPreQuorum);
        break;
      case Stage::kPreQuorum:
        adopt(a, j);  // still persuadable
        break;
      default:
        break;  // quorum met: commitment locked
    }
  }

  /// Assess-round observation. Only kPassive and kPreQuorum ants get
  /// here (quorum-met ants no longer observe; kInit ants run apply_init),
  /// and both record the count; the rarely true quorum test goes first
  /// because the passive/pre-quorum mix is irregular.
  void apply_assess(std::size_t a, std::uint32_t count) {
    count_[a] = count;
    if (count >= threshold_ &&
        static_cast<Stage>(stage_[a]) == Stage::kPreQuorum) {
      stage_[a] = static_cast<std::uint8_t>(Stage::kQuorumMet);
      ++finalized_count_;
    }
  }

  std::uint32_t threshold_;
  double tandem_rate_;
  std::uint32_t finalized_count_ = 0;

  std::vector<util::Rng> rng_;
  std::vector<std::uint8_t> stage_;
  std::vector<Phase> phase_;      // per ant: frozen while asleep/crashed
  std::vector<std::uint32_t> count_;
};

}  // namespace

AntPack::AntPack(std::uint32_t num_ants, std::uint32_t num_nests)
    : num_ants_(num_ants) {
  HH_EXPECTS(num_ants >= 1);
  nest_.assign(num_ants, env::kHomeNest);
  census_.assign(num_nests + 1, 0);
  census_[env::kHomeNest] = num_ants;  // re-derived by reset_commitments
}

AntPack::~AntPack() = default;

void AntPack::reset_commitments() {
  std::fill(nest_.begin(), nest_.end(), env::kHomeNest);
  std::fill(census_.begin(), census_.end(), 0u);
  census_[env::kHomeNest] = correct_count();
}

void AntPack::committed_census(std::span<std::uint32_t> census) const {
  HH_EXPECTS(census.size() == census_.size());
  std::copy(census_.begin(), census_.end(), census.begin());
}

void AntPack::install_fault_plan(const env::FaultPlan& plan) {
  HH_EXPECTS(plan.type.size() == num_ants_);
  HH_EXPECTS(plan.crash_round.size() == num_ants_);
  correct_count_ = 0;
  byz_count_ = 0;
  act_.resize(num_ants_);  // both rewritten every round by acting_lane
  next_act_.resize(num_ants_);
  fault_type_.resize(num_ants_);
  crash_round_.resize(num_ants_);
  byz_target_.assign(num_ants_, env::kHomeNest);
  byz_quality_.assign(num_ants_, kByzantineNoTargetQuality);
  byz_scouted_.assign(num_ants_, 0);
  for (env::AntId a = 0; a < num_ants_; ++a) {
    fault_type_[a] = static_cast<std::uint8_t>(plan.type[a]);
    crash_round_[a] = plan.crash_round[a];
    correct_count_ += plan.type[a] == env::FaultType::kNone ? 1u : 0u;
    byz_count_ += plan.type[a] == env::FaultType::kByzantine ? 1u : 0u;
  }
  byz_scouting_ = byz_count_;
  // A plan whose victim counts floored to zero is behaviorally fault-free:
  // keep the fault-free fast paths (no acting lanes).
  has_faults_ = correct_count_ != num_ants_;
}

void AntPack::reset(std::uint64_t colony_seed) {
  do_reset(colony_seed);
  if (has_faults_) {
    // Re-derive the Byzantine scout state; the installed plan (types,
    // crash rounds) persists — Simulation::reset reinstalls it when the
    // plan itself depends on the master seed.
    std::fill(byz_target_.begin(), byz_target_.end(), env::kHomeNest);
    std::fill(byz_quality_.begin(), byz_quality_.end(),
              kByzantineNoTargetQuality);
    std::fill(byz_scouted_.begin(), byz_scouted_.end(), std::uint8_t{0});
    byz_scouting_ = byz_count_;
  }
}

void AntPack::acting_lane(std::uint32_t round,
                          std::span<const std::uint8_t> awake,
                          std::span<std::uint8_t> lane) const {
  for (env::AntId a = 0; a < num_ants_; ++a) {
    // CrashProneAnt idles (and stops observing) from its crash round;
    // ByzantineAnt never runs the algorithm.
    const auto type = static_cast<env::FaultType>(fault_type_[a]);
    const bool runs = type == env::FaultType::kNone ||
                      (type == env::FaultType::kCrash && round < crash_round_[a]);
    lane[a] = runs && (awake.empty() || awake[a] != 0) ? 1 : 0;
  }
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::plan_inactive(std::span<const std::uint8_t> awake,
                            std::span<env::MaskedOp> op,
                            std::span<std::uint8_t> active,
                            std::span<env::NestId> targets) {
  if (!has_faults_) {
    for (std::size_t a = 0; a < awake.size(); ++a) {
      if (awake[a] == 0) op[a] = env::MaskedOp::kIdle;
    }
    return;
  }
  for (env::AntId a = 0; a < num_ants_; ++a) {
    if (act_[a] != 0) continue;  // the kernel planned this row
    // A sleeping ant idles whatever its fault lane would do (the scalar
    // loop consults the scheduler before the fault wrapper's decide), and
    // a crashed one idles too. An awake ByzantineAnt scouts for the worst
    // nest, then recruits toward it every round, forever, ignoring all
    // feedback.
    if (!byzantine(a) || (!awake.empty() && awake[a] == 0)) {
      op[a] = env::MaskedOp::kIdle;
    } else if (byz_scouted_[a] < kByzantineScoutRounds) {
      op[a] = env::MaskedOp::kSearch;
    } else {
      op[a] = env::MaskedOp::kRecruit;
      active[a] = 1;
      targets[a] = byz_target_[a];
    }
  }
}

void AntPack::plan_first_round(std::span<const std::uint8_t> awake,
                               std::span<env::MaskedOp> op,
                               std::span<std::uint8_t> active,
                               std::span<env::NestId> targets) {
  HH_EXPECTS(op.size() == num_ants_);
  HH_EXPECTS(active.size() == num_ants_);
  HH_EXPECTS(targets.size() == num_ants_);
  HH_EXPECTS(awake.empty() || awake.size() == num_ants_);
  // Every built-in algorithm opens with search() and draws nothing to
  // decide it; so does a Byzantine scout.
  std::fill(op.begin(), op.end(), env::MaskedOp::kSearch);
  if (has_faults_) acting_lane(1, awake, act_);
  plan_inactive(awake, op, active, targets);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void AntPack::observe_and_plan(const env::Environment& env,
                               std::span<const std::uint8_t> awake,
                               std::span<const std::uint8_t> awake_next,
                               std::span<env::MaskedOp> op,
                               std::span<std::uint8_t> active,
                               std::span<env::NestId> targets) {
  HH_EXPECTS(op.size() == num_ants_);
  HH_EXPECTS(active.size() == num_ants_);
  HH_EXPECTS(targets.size() == num_ants_);
  HH_EXPECTS(awake.size() == awake_next.size());
  HH_EXPECTS(awake.empty() || awake.size() == num_ants_);
  // Byzantine scouts learn only while some scout window is still open —
  // skip the O(n) scan for the rest of the run.
  if (byz_scouting_ > 0) {
    with_seen(env, [&](const auto& seen) {
      for (env::AntId a = 0; a < num_ants_; ++a) {
        // op is this round's plan: a scouting adversary holds kSearch, a
        // sleeping one kIdle (no search, no learning, scout window
        // stretched — like the scalar ant, whose rounds_scouted_ only
        // advances on a search outcome).
        if (!byzantine(a) || op[a] != env::MaskedOp::kSearch) continue;
        scout_round_done(a);
        // Track the worst nest seen (as perceived); ties broken toward the
        // first found so the adversary concentrates its pull on a single
        // bad nest.
        const env::NestId found = env.location(a);
        const double q = seen.quality(a, found);
        if (q < byz_quality_[a]) {
          byz_quality_[a] = q;
          byz_target_[a] = found;
        }
      }
    });
  }
  Acting acting;  // null lanes: every ant acts in both rounds
  if (has_faults_) {
    acting_lane(env.round() + 1, awake_next, next_act_);
    acting = {act_.data(), next_act_.data()};
  } else if (!awake.empty()) {
    acting = {awake.data(), awake_next.data()};  // fault-free: awake = acts
  }
  observe_decide(env, acting, op, active, targets);
  if (has_faults_) act_.swap(next_act_);
  plan_inactive(awake_next, op, active, targets);
}

std::uint32_t AntPack::agreement_census(ConvergenceMode mode,
                                        const env::Environment& /*env*/,
                                        std::span<std::uint32_t> census) const {
  // Packs default to the kCommitment notion; packs whose algorithms use
  // finalized/physical agreement override (OptimalPack).
  HH_EXPECTS(mode == ConvergenceMode::kCommitment);
  committed_census(census);
  return correct_count();
}

std::uint32_t AntPack::count_finalized(
    std::span<const env::AntId> /*ants*/) const {
  return 0;
}

std::unique_ptr<AntPack> make_simple_family_pack(
    AlgorithmKind variant, std::uint32_t num_ants, std::uint32_t num_nests,
    std::uint64_t colony_seed, const AlgorithmParams& params,
    const env::FaultPlan* faults) {
  return std::make_unique<SimpleFamilyPack>(variant, num_ants, num_nests,
                                            colony_seed, params, faults);
}

std::unique_ptr<AntPack> make_quorum_pack(
    AlgorithmKind /*variant*/, std::uint32_t num_ants, std::uint32_t num_nests,
    std::uint64_t colony_seed, const AlgorithmParams& params,
    const env::FaultPlan* faults) {
  return std::make_unique<QuorumPack>(num_ants, num_nests, colony_seed, params,
                                      faults);
}

}  // namespace hh::core
