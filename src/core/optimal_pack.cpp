#include "core/optimal_pack.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace hh::core {

namespace {

/// Algorithm 2 as state arrays. Faithfulness notes are in
/// core/optimal_ant.{hpp,cpp}; every transition here mirrors OptimalAnt
/// observation for observation (the algorithm draws no per-ant
/// randomness, so equivalence is purely a matter of identical
/// count/nest comparisons in identical order).
class OptimalPack final : public AntPack {
 public:
  OptimalPack(std::uint32_t num_ants, std::uint32_t num_nests,
              std::uint64_t colony_seed, bool settle,
              const env::FaultPlan* faults)
      : AntPack(num_ants, num_nests), settle_(settle) {
    HH_EXPECTS(num_ants >= 1);
    const std::size_t n = num_ants;
    state_.resize(n);
    step_.resize(n);
    count_.resize(n);
    nest_t_.resize(n);
    count_t_.resize(n);
    case_.resize(n);
    pending_passive_.resize(n);
    pending_final_.resize(n);
    full_house_streak_.resize(n);
    fin_census_.resize(num_nests + 1);
    if (faults != nullptr) install_fault_plan(*faults);
    const bool did_reset = reset(colony_seed);
    HH_ASSERT(did_reset);
  }

  [[nodiscard]] bool do_reset(std::uint64_t /*colony_seed*/) override {
    // OptimalAnt consumes no per-ant RNG stream (the factory discards it),
    // so reset is pure lane re-initialization.
    std::fill(state_.begin(), state_.end(),
              static_cast<std::uint8_t>(State::kSearch));
    std::fill(step_.begin(), step_.end(), std::uint8_t{0});
    reset_commitments();
    std::fill(count_.begin(), count_.end(), 0u);
    std::fill(nest_t_.begin(), nest_t_.end(), env::kHomeNest);
    std::fill(count_t_.begin(), count_t_.end(), 0u);
    std::fill(case_.begin(), case_.end(),
              static_cast<std::uint8_t>(ActiveCase::kUndecided));
    std::fill(pending_passive_.begin(), pending_passive_.end(),
              std::uint8_t{0});
    std::fill(pending_final_.begin(), pending_final_.end(), std::uint8_t{0});
    std::fill(full_house_streak_.begin(), full_house_streak_.end(), 0u);
    std::fill(fin_census_.begin(), fin_census_.end(), 0u);
    finalized_count_ = 0;
    return true;
  }

  /// One ant's masked decision — decide_masked's per-ant body, shared
  /// with the fused observe+decide pass.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void decide_one(std::size_t a, std::span<env::MaskedOp> op,
                  std::span<std::uint8_t> active,
                  std::span<env::NestId> targets) const {
    switch (static_cast<State>(state_[a])) {
      case State::kSearch:
        op[a] = env::MaskedOp::kSearch;  // line 7 (round 1 only)
        break;
      case State::kActive:
        decide_active(a, step_[a], op, active, targets);
        break;
      case State::kPassive:
        if (step_[a] == 1) {
          // R2, line 14: home, waiting to be recruited.
          op[a] = env::MaskedOp::kRecruit;
          active[a] = 0;
          targets[a] = nest_[a];
        } else {
          // R1 (line 13), R3/R4 (lines 18-19): rounds at the nest.
          op[a] = env::MaskedOp::kGo;
          targets[a] = nest_[a];
        }
        break;
      case State::kFinal:
        op[a] = env::MaskedOp::kRecruit;  // line 21, every round
        active[a] = 1;
        targets[a] = nest_[a];
        break;
      case State::kSettled:
        op[a] = env::MaskedOp::kGo;  // termination extension: stay put
        targets[a] = nest_[a];
        break;
    }
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void decide_masked(std::uint32_t /*round*/, std::span<const std::uint8_t> act,
                     std::span<env::MaskedOp> op,
                     std::span<std::uint8_t> active,
                     std::span<env::NestId> targets) override {
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (!act[a]) continue;
      decide_one(a, op, active, targets);
    }
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_masked_acting(std::span<const std::uint8_t> act,
                             std::span<const env::Outcome> outcomes) override {
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (!act[a]) continue;
      const env::Outcome& out = outcomes[a];
      apply(a, out.nest, out.count, out.quality);
    }
  }

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_masked_quiet_acting(
      std::span<const std::uint8_t> act, const env::Environment& env,
      std::span<const env::MaskedOp> op,
      std::span<const env::NestId> targets) override {
    const std::span<const std::uint32_t> counts = env.counts();
    // The recruit() return values j, ant-indexed — the env fills the lane
    // in its matching-bookkeeping walk, so a recruit ant's observation is
    // one sequential load instead of the recruited_by_ant() load chain.
    const std::span<const env::NestId> results = env.recruit_results();
    const std::uint32_t home_count = counts[env::kHomeNest];
    for (std::size_t a = 0; a < act.size(); ++a) {
      if (!act[a]) continue;
      if (static_cast<State>(state_[a]) == State::kSearch) {
        const env::NestId found = env.location(static_cast<env::AntId>(a));
        apply_search(a, found, counts[found], env.qualities()[found - 1]);
        continue;
      }
      // op[a] is what decide_masked emitted this round — the one copy of
      // the R1-R4 recruit/go classification.
      if (op[a] == env::MaskedOp::kRecruit) {
        // j plus the home-nest population (read by finals for settling).
        apply(a, results[a], home_count, 0.0);
      } else {
        // go(targets[a]): the visited nest's end-of-round count.
        apply(a, targets[a], counts[targets[a]], 0.0);
      }
    }
  }

  [[nodiscard]] bool fused_observe_decide(
      const env::Environment& env, std::span<env::MaskedOp> op,
      std::span<std::uint8_t> active,
      std::span<env::NestId> targets) override {
    // One pass instead of observe + decide: absorb ant a's result while
    // its state words are hot, then immediately rewrite its lanes with
    // the next round's decision. The in-place lane overwrite is safe
    // because the observe side reads only ant a's own op/target rows
    // (recruit returns come from the env's ant-indexed results lane, not
    // from targets[recruiter]), and the caller's gates guarantee every
    // lane acts.
    const std::span<const std::uint32_t> counts = env.counts();
    const std::span<const env::NestId> results = env.recruit_results();
    const std::uint32_t home_count = counts[env::kHomeNest];
    for (std::size_t a = 0; a < op.size(); ++a) {
      if (static_cast<State>(state_[a]) == State::kSearch) {
        const env::NestId found = env.location(static_cast<env::AntId>(a));
        apply_search(a, found, counts[found], env.qualities()[found - 1]);
      } else if (op[a] == env::MaskedOp::kRecruit) {
        apply(a, results[a], home_count, 0.0);
      } else {
        apply(a, targets[a], counts[targets[a]], 0.0);
      }
      decide_one(a, op, active, targets);
    }
    return true;
  }

  [[nodiscard]] std::uint32_t agreement_census(
      ConvergenceMode mode, const env::Environment& env,
      std::span<std::uint32_t> census) const override {
    HH_EXPECTS(census.size() == census_.size());
    switch (mode) {
      case ConvergenceMode::kCommitment:
        std::copy(census_.begin(), census_.end(), census.begin());
        break;
      case ConvergenceMode::kCommitmentFinalized:
        // Correct ants that are final (or settled), by committed nest —
        // maintained incrementally on the final transitions.
        std::copy(fin_census_.begin(), fin_census_.end(), census.begin());
        break;
      case ConvergenceMode::kPhysical:
        // The literal HouseHunting predicate: correct finalized ants by
        // physical location (finals are home while they recruit; only
        // settled ants park at their nest, so this fires once the whole
        // colony settles — exactly as the scalar detector sees it).
        std::fill(census.begin(), census.end(), 0u);
        for (env::AntId a = 0; a < size(); ++a) {
          if (!counts_in_census(a)) continue;
          const auto state = static_cast<State>(state_[a]);
          if (state == State::kFinal || state == State::kSettled) {
            ++census[env.location(a)];
          }
        }
        break;
    }
    return correct_count();
  }

  [[nodiscard]] bool finalized(env::AntId a) const override {
    const auto state = static_cast<State>(state_[a]);
    return state == State::kFinal || state == State::kSettled;
  }

  [[nodiscard]] bool any_finalized() const override {
    return finalized_count_ > 0;
  }

  [[nodiscard]] std::uint32_t count_finalized(
      std::span<const env::AntId> ants) const override {
    std::uint32_t c = 0;
    for (const env::AntId a : ants) {
      const auto state = static_cast<State>(state_[a]);
      c += (state == State::kFinal || state == State::kSettled) ? 1u : 0u;
    }
    return c;
  }

  [[nodiscard]] std::string_view name() const override {
    return algorithm_name(settle_ ? AlgorithmKind::kOptimalSettle
                                  : AlgorithmKind::kOptimal);
  }

 private:
  // Mirrors of OptimalAnt's enums (kept numerically byte-sized for lanes).
  enum class State : std::uint8_t {
    kSearch,
    kActive,
    kPassive,
    kFinal,
    kSettled
  };
  enum class ActiveCase : std::uint8_t { kUndecided, kCase1, kCase2, kCase3 };

  void decide_active(std::size_t a, std::uint8_t step,
                     std::span<env::MaskedOp> op,
                     std::span<std::uint8_t> active,
                     std::span<env::NestId> targets) const {
    switch (step) {
      case 0:  // R1, line 23: try to recruit to the committed nest
        op[a] = env::MaskedOp::kRecruit;
        active[a] = 1;
        targets[a] = nest_[a];
        break;
      case 1:  // R2, line 24: visit the resulting nest and count
        op[a] = env::MaskedOp::kGo;
        targets[a] = nest_t_[a];
        break;
      case 2:  // R3: case 1 go (line 28), case 2 recruit(0) (line 35),
               // case 3 go to the new nest (line 39)
        HH_ASSERT(static_cast<ActiveCase>(case_[a]) != ActiveCase::kUndecided);
        if (static_cast<ActiveCase>(case_[a]) == ActiveCase::kCase2) {
          op[a] = env::MaskedOp::kRecruit;
          active[a] = 0;
          targets[a] = nest_[a];
        } else {
          op[a] = env::MaskedOp::kGo;
          targets[a] = nest_[a];
        }
        break;
      case 3:  // R4: case 1 recruit(0) (line 29), cases 2/3 go (lines 36, 42)
        if (static_cast<ActiveCase>(case_[a]) == ActiveCase::kCase1) {
          op[a] = env::MaskedOp::kRecruit;
          active[a] = 0;
          targets[a] = nest_[a];
        } else {
          op[a] = env::MaskedOp::kGo;
          targets[a] = nest_[a];
        }
        break;
      default:
        HH_ASSERT(false);
    }
  }

  void set_final(std::size_t a) {
    state_[a] = static_cast<std::uint8_t>(State::kFinal);
    ++finalized_count_;
    if (counts_in_census(static_cast<env::AntId>(a))) {
      ++fin_census_[nest_[a]];
    }
  }

  /// Lines 7-11: commit to the found nest; bad quality => passive.
  void apply_search(std::size_t a, env::NestId found, std::uint32_t count,
                    double quality) {
    adopt(a, found);
    count_[a] = count;
    state_[a] = static_cast<std::uint8_t>(quality > 0.0 ? State::kActive
                                                        : State::kPassive);
    step_[a] = 0;
    case_[a] = static_cast<std::uint8_t>(ActiveCase::kUndecided);
  }

  /// One observation for ant a: `nest` is the returned nest (go target /
  /// recruit return j / search landing), `count` the perceived count the
  /// call returns. Mirrors OptimalAnt::observe branch for branch; the
  /// ant's position in its 4-round block is the per-ant step_ lane
  /// (advanced here, frozen while the ant sleeps or is crashed — exactly
  /// the scalar ant's step_).
  void apply(std::size_t a, env::NestId nest, std::uint32_t count,
             double quality) {
    switch (static_cast<State>(state_[a])) {
      case State::kSearch:
        apply_search(a, nest, count, quality);
        break;
      case State::kActive:
        apply_active(a, step_[a], nest, count);
        step_[a] = static_cast<std::uint8_t>((step_[a] + 1) % 4);
        break;
      case State::kPassive:
        apply_passive(a, step_[a], nest);
        step_[a] = static_cast<std::uint8_t>((step_[a] + 1) % 4);
        break;
      case State::kFinal:
        // Line 21: <nest, .> := recruit(1, nest) — the assignment means a
        // poached final ant switches its commitment to the recruiter's
        // nest.
        if (nest != nest_[a]) {
          if (counts_in_census(static_cast<env::AntId>(a))) {
            --fin_census_[nest_[a]];
            ++fin_census_[nest];
          }
          adopt(a, nest);
        }
        if (settle_) {
          // Section 4.2 termination fix: two consecutive rounds with every
          // ant at the home nest are only possible once all ants are final
          // (a passive ant is home at most one round in four), so all
          // finals observe the same streak and settle simultaneously.
          if (count == size()) {
            if (++full_house_streak_[a] >= 2) {
              state_[a] = static_cast<std::uint8_t>(State::kSettled);
            }
          } else {
            full_house_streak_[a] = 0;
          }
        }
        break;
      case State::kSettled:
        break;  // go(nest) forever; nothing to learn
    }
  }

  void apply_active(std::size_t a, std::uint8_t step, env::NestId nest,
                    std::uint32_t count) {
    switch (step) {
      case 0:
        // Line 23: nest_t is the recruit() return value j.
        nest_t_[a] = nest;
        break;
      case 1:
        // Line 24: count_t := go(nest_t); then select the case
        // (lines 25-42).
        count_t_[a] = count;
        if (nest_t_[a] == nest_[a]) {
          if (count_t_[a] >= count_[a]) {
            case_[a] = static_cast<std::uint8_t>(ActiveCase::kCase1);
            count_[a] = count_t_[a];  // line 27
          } else {
            case_[a] = static_cast<std::uint8_t>(ActiveCase::kCase2);
            pending_passive_[a] = 1;  // line 34 (takes effect after block)
          }
        } else {
          case_[a] = static_cast<std::uint8_t>(ActiveCase::kCase3);
          adopt(a, nest_t_[a]);  // line 38
        }
        break;
      case 2:
        if (static_cast<ActiveCase>(case_[a]) == ActiveCase::kCase3) {
          // Lines 39-41: count_n distinguishes competing (case-1 ants are
          // at the nest this round, so count_n == count_t) from dropping
          // out (case-2 ants are at home, so count_n < count_t).
          if (count < count_t_[a]) {
            pending_passive_[a] = 1;  // line 41
          } else {
            // Adopt the new nest's population as the reference for the
            // next block's comparison (see OptimalAnt and DESIGN.md §2).
            count_[a] = count;
          }
        }
        // Case 1: go(nest) — nothing to record. Case 2: recruit(0) return
        // discarded (pseudocode line 35 has no assignment).
        break;
      case 3:
        if (static_cast<ActiveCase>(case_[a]) == ActiveCase::kCase1 &&
            count == count_[a]) {
          // Lines 29-31: count_h == count means every active ant in the
          // colony is committed to this nest — switch to final.
          set_final(a);
        }
        if (static_cast<State>(state_[a]) != State::kFinal &&
            pending_passive_[a] != 0) {
          state_[a] = static_cast<std::uint8_t>(State::kPassive);
        }
        pending_passive_[a] = 0;
        case_[a] = static_cast<std::uint8_t>(ActiveCase::kUndecided);
        break;
      default:
        HH_ASSERT(false);
    }
  }

  void apply_passive(std::size_t a, std::uint8_t step, env::NestId nest) {
    switch (step) {
      case 0:
      case 2:
        break;
      case 1:
        // Lines 14-17: recruited => adopt the new nest and become final
        // after finishing the block's two go(nest) rounds.
        if (nest != nest_[a]) {
          adopt(a, nest);
          pending_final_[a] = 1;
        }
        break;
      case 3:
        if (pending_final_[a] != 0) {
          set_final(a);
          pending_final_[a] = 0;
        }
        break;
      default:
        HH_ASSERT(false);
    }
  }

  bool settle_;
  std::uint32_t finalized_count_ = 0;

  std::vector<std::uint8_t> state_;
  std::vector<std::uint8_t> step_;         ///< position in the 4-round block
  std::vector<std::uint32_t> count_;       ///< last accepted population count
  std::vector<env::NestId> nest_t_;        ///< R1 recruit return (nest_t)
  std::vector<std::uint32_t> count_t_;     ///< R2 count (count_t)
  std::vector<std::uint8_t> case_;         ///< ActiveCase per ant
  std::vector<std::uint8_t> pending_passive_;
  std::vector<std::uint8_t> pending_final_;
  std::vector<std::uint32_t> full_house_streak_;  ///< settle only
  std::vector<std::uint32_t> fin_census_;  ///< committed census of correct
                                           ///< finalized ants
};

}  // namespace

std::unique_ptr<AntPack> make_optimal_pack(std::uint32_t num_ants,
                                           std::uint32_t num_nests,
                                           std::uint64_t colony_seed,
                                           bool settle,
                                           const env::FaultPlan* faults) {
  return std::make_unique<OptimalPack>(num_ants, num_nests, colony_seed,
                                       settle, faults);
}

}  // namespace hh::core
