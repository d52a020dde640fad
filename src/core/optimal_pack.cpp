#include "core/optimal_pack.hpp"

#include <algorithm>
#include <memory>
#include <type_traits>

#include "util/contracts.hpp"

namespace hh::core {

namespace {

/// Algorithm 2 as state arrays. Faithfulness notes are in
/// core/optimal_ant.{hpp,cpp}; every transition here mirrors OptimalAnt
/// observation for observation (the algorithm draws no per-ant
/// randomness, so equivalence is purely a matter of identical
/// count/nest comparisons in identical order). Each transition is coded
/// once: the block steps in observe_decide_passive/_active, a final
/// ant's observe in observe_final, the rest in observe_decide_general.
/// The listed pass (fault-free, fully synchronous colonies) and the laned
/// pass (faulted or partially synchronous ones) both run them.
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
    if (settle_) full_house_streak_.resize(n);
    fin_census_.resize(num_nests + 1);
    // Each ant moves its commitment or finalizes at most once per round,
    // and sits on at most one of the listed pass's ant lists. Left
    // uninitialised: the listed pass writes before it reads, so building a
    // colony touches none of their pages.
    deferred_ = std::make_unique_for_overwrite<CensusUpdate[]>(n);
    passive_ants_ = std::make_unique_for_overwrite<env::AntId[]>(n);
    other_ants_ = std::make_unique_for_overwrite<env::AntId[]>(n);
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
    listed_ = false;
    return true;
  }

  /// One ant's masked decision (OptimalAnt::decide), read off its state
  /// and block step: the decide half of the general path, and the whole
  /// round of an ant waking from a frozen block.
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
  void observe_decide(const env::Environment& env, Acting acting,
                      std::span<env::MaskedOp> op,
                      std::span<std::uint8_t> active,
                      std::span<env::NestId> targets) override {
    const Lanes lanes = kernel_lanes(env, op, active, targets);
    with_views(env, acting, [&](const auto seen, const auto& act) {
      if constexpr (std::is_same_v<std::decay_t<decltype(act)>, EveryAnt>) {
        observe_decide_listed(env, seen, lanes);
      } else {
        // Faulted and partially synchronous colonies: an ant that does
        // not act freezes its block, so the block steps drift apart and
        // each ant runs at its own. An ant waking from a frozen block
        // observes nothing and only decides.
        for (env::AntId a = 0; a < lanes.n; ++a) {
          if (act.acted(a)) {
            observe_decide_laned(lanes, seen, env, a);
          } else if (act.acts(a)) {
            decide_one(a, op, active, targets);
          }
        }
      }
    });
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

  /// One census update of a block step: a commitment move from -> to
  /// (step 1), or a finalization at `to` (step 3; `from` unused).
  struct CensusUpdate {
    env::NestId from;
    env::NestId to;
  };

  /// Raw lane pointers for the round kernel. Its byte stores may alias
  /// any object, the member vectors' own data pointers included, so
  /// indexing the vectors would reload every base pointer for every ant.
  struct Lanes {
    std::uint8_t* state;
    std::uint8_t* step;
    std::uint8_t* pending_final;
    std::uint8_t* pending_passive;
    std::uint8_t* active_case;
    env::NestId* nest;
    env::NestId* nest_t;
    std::uint32_t* count;
    std::uint32_t* count_t;
    CensusUpdate* deferred;
    env::MaskedOp* op;
    std::uint8_t* active;
    env::NestId* targets;
    const env::NestId* results;
    std::size_t n;
  };

  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  [[nodiscard]] Lanes kernel_lanes(const env::Environment& env,
                                   std::span<env::MaskedOp> op,
                                   std::span<std::uint8_t> active,
                                   std::span<env::NestId> targets) {
    return Lanes{state_.data(),         step_.data(),
                 pending_final_.data(), pending_passive_.data(),
                 case_.data(),          nest_.data(),
                 nest_t_.data(),        count_.data(),
                 count_t_.data(),       deferred_.get(),
                 op.data(),             active.data(),
                 targets.data(),        env.recruit_results().data(),
                 op.size()};
  }

  /// The listed pass: the round kernel of a fault-free, fully synchronous
  /// colony, under exact and noisy observation alike (`seen`). One pass
  /// instead of observe + decide: absorb ant a's result while its state
  /// words are hot, then immediately rewrite its lanes with the next
  /// round's decision. The in-place lane overwrite is safe because the
  /// observe side reads only ant a's own op/target rows (recruit returns
  /// come from the env's ant-indexed results lane, not from
  /// targets[recruiter]).
  ///
  /// Every ant acts every round here, so the block step is colony-global:
  /// apply_search puts the whole colony at step 0 after round 1, and
  /// active and passive ants both advance one step per round. So the
  /// round's step is derived once, here, and the per-ant switch on it
  /// becomes four specialised loops.
  ///
  /// The ant's state stays out of the per-ant branches too: the states
  /// interleave at random by ant index, so a branch on it mispredicts
  /// whenever they mix. Final ants (most of a trial's ant-rounds) get a
  /// store-free scan; passive ants and the rest (active, search, settled
  /// and optimal+settle final ants) each run from their own list, so each
  /// list loop sees one state.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <typename Seen>
  void observe_decide_listed(const env::Environment& env, const Seen seen,
                             const Lanes lanes) {
    if (!listed_) list_ants();
    if (!settle_ && finalized_count_ > 0) observe_finals(lanes, seen);
    switch ((env.round() + 2) & 3u) {
      case 0:
        observe_decide_step<0>(lanes, seen, env);
        break;
      case 1:
        observe_decide_step<1>(lanes, seen, env);
        break;
      case 2:
        observe_decide_step<2>(lanes, seen, env);
        break;
      default:
        observe_decide_step<3>(lanes, seen, env);
        break;
    }
  }

  /// The listed pass's final ants: line 21's recruit(1, nest) every round.
  /// A final ant's call never changes, so its op/active/target rows
  /// still hold this round's recruit(1, nest) and need no rewrite — only
  /// a poached final ant (j != nest) has anything to do: adopt j and
  /// retarget. Poaching is rare, so the scan ORs a block's poached words
  /// first (a fixed-length loop the compiler vectorizes) and walks the
  /// block ant by ant only when that is nonzero.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <typename Seen>
  void observe_finals(const Lanes lanes, const Seen seen) {
    constexpr std::size_t kBlock = 64;
    for (std::size_t first = 0; first < lanes.n; first += kBlock) {
      const std::size_t last = std::min(first + kBlock, lanes.n);
      std::uint32_t any = 1;  // a short tail block is walked as it is
      if (last - first == kBlock) {
        any = 0;
        for (std::size_t i = 0; i < kBlock; ++i) {
          any |= poached_word(lanes, first + i);
        }
      }
      if (any == 0) [[likely]] continue;
      for (std::size_t a = first; a < last; ++a) {
        if (poached_word(lanes, a) == 0) continue;
        HH_ASSERT(lanes.op[a] == env::MaskedOp::kRecruit &&
                  lanes.active[a] == 1);
        observe_final(a, lanes.results[a], seen.count(a, env::kHomeNest));
        lanes.targets[a] = lanes.results[a];
      }
    }
  }

  /// Nonzero iff ant a is final and was poached (j != nest). A mask, not
  /// a && (or an & of two bools), which GCC splits back into a branch on
  /// the state alone.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  [[nodiscard]] static std::uint32_t poached_word(const Lanes& lanes,
                                                  std::size_t a) {
    const std::uint32_t final_mask =
        0u - static_cast<std::uint32_t>(
                 lanes.state[a] == static_cast<std::uint8_t>(State::kFinal));
    return (lanes.results[a] ^ lanes.nest[a]) & final_mask;
  }

  /// A final ant's observe: line 21's <nest, .> := recruit(1, nest). A
  /// poached final ant (j != nest) adopts j, and both censuses move with
  /// it (correct ants only). Under optimal+settle, `home_count`, the count
  /// the recruit call returns, drives the settle streak.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void observe_final(std::size_t a, env::NestId j, std::uint32_t home_count) {
    if (j != nest_[a]) {
      if (counts_in_census(static_cast<env::AntId>(a))) {
        --fin_census_[nest_[a]];
        ++fin_census_[j];
      }
      adopt(a, j);
    }
    if (settle_) {
      // Section 4.2 termination fix: two consecutive rounds with every
      // ant at the home nest are only possible once all ants are final
      // (a passive ant is home at most one round in four), so all finals
      // observe the same streak and settle simultaneously.
      if (home_count == size()) {
        if (++full_house_streak_[a] >= 2) {
          state_[a] = static_cast<std::uint8_t>(State::kSettled);
        }
      } else {
        full_house_streak_[a] = 0;
      }
    }
  }

  /// The listed pass over the two ant lists at block step S (the step
  /// every active and passive ant observes this round). Passive and
  /// active ants update with integer arithmetic and put their census
  /// updates on the deferred list (unconditional store, predicated
  /// advance): commitment moves at step 1, finalizations at step 3, the
  /// only steps that have them. The listed pass runs only for fault-free
  /// colonies, so every ant counts in both censuses. Ants change state
  /// only at the end of a block, so step 3 also keeps the lists: new
  /// final ants leave (except optimal+settle's), and the other list's new
  /// passive ants join the end of the passive list, which runs first.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <unsigned S, typename Seen>
  void observe_decide_step(const Lanes lanes, const Seen seen,
                           const env::Environment& env) {
    env::AntId* const passive_ants = passive_ants_.get();
    std::uint32_t passive_end = 0;
    std::uint32_t deferred = 0;
    for (const bool other : {false, true}) {
      env::AntId* const ants = other ? other_ants_.get() : passive_ants;
      const std::uint32_t count = other ? other_count_ : passive_count_;
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        const env::AntId a = ants[i];
        const Relist relist = observe_decide_one<S>(lanes, seen, env, a,
                                                    deferred);
        if constexpr (S == 3) {
          if (other) {
            passive_ants[passive_end] = a;
            passive_end += relist.to_passive;
          }
          ants[kept] = a;
          kept += relist.stay;
        }
      }
      if constexpr (S == 3) {
        if (other) {
          other_count_ = kept;
          passive_count_ = passive_end;
        } else {
          passive_end = kept;
        }
      }
    }
    if constexpr (S == 1) {
      std::uint32_t* const census = census_.data();
      for (std::uint32_t i = 0; i < deferred; ++i) {
        --census[lanes.deferred[i].from];
        ++census[lanes.deferred[i].to];
      }
    } else if constexpr (S == 3) {
      std::uint32_t* const fin_census = fin_census_.data();
      for (std::uint32_t i = 0; i < deferred; ++i) {
        ++fin_census[lanes.deferred[i].to];
      }
      finalized_count_ += deferred;
    }
  }

  /// Build the listed pass's ant lists from the state lane (in the first
  /// listed pass after a reset — round 1's, where every ant searches).
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  void list_ants() {
    passive_count_ = 0;
    other_count_ = 0;
    for (env::AntId a = 0; a < size(); ++a) {
      const auto state = static_cast<State>(state_[a]);
      if (state == State::kPassive) {
        passive_ants_[passive_count_++] = a;
      } else if (state != State::kFinal || settle_) {
        other_ants_[other_count_++] = a;
      }
    }
    listed_ = true;
  }

  /// Where step 3 puts a listed ant: back on its list, or on the passive
  /// list; neither means it is final and leaves. Computed, not compared
  /// after the fact: GCC turns a predicated advance on a compare of the
  /// reloaded state into a branch on it.
  struct Relist {
    std::uint32_t stay;
    std::uint32_t to_passive;
  };

  /// One listed ant's observe+decide at block step S. A listed final ant
  /// (not optimal+settle's) was finalized outside the list loops and has
  /// had its round in observe_finals.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <unsigned S, typename Seen>
  [[gnu::always_inline]] Relist observe_decide_one(
      const Lanes& lanes, const Seen seen, const env::Environment& env,
      env::AntId a, std::uint32_t& deferred) {
    // settle_ finals watch the home-nest streak: they stay listed and take
    // the general path.
    const std::uint32_t final_leaves = settle_ ? 0u : 1u;
    const std::uint8_t st = lanes.state[a];
    if (st == static_cast<std::uint8_t>(State::kPassive)) {
      HH_ASSERT(lanes.step[a] == S);
      const std::uint32_t fin = observe_decide_passive<S>(lanes, a, deferred);
      lanes.step[a] = static_cast<std::uint8_t>((S + 1) & 3u);
      return {1u - (fin & final_leaves), 0u};
    }
    if (st == static_cast<std::uint8_t>(State::kActive)) {
      HH_ASSERT(lanes.step[a] == S);
      const Relist relist = observe_decide_active<S>(lanes, seen, a,
                                                     final_leaves, deferred);
      lanes.step[a] = static_cast<std::uint8_t>((S + 1) & 3u);
      return relist;
    }
    if (st == static_cast<std::uint8_t>(State::kFinal) && final_leaves != 0) {
      return {0u, 0u};
    }
    observe_decide_general(a, lanes, seen, env);
    const bool passive = static_cast<State>(state_[a]) == State::kPassive;
    return {passive ? 0u : 1u, passive ? 1u : 0u};
  }

  /// A passive ant at block step S: lines 13-19. Its census update, if
  /// any, goes to lanes.deferred[deferred], and `deferred` advances past
  /// it. Returns 1 iff the ant turned final. Both passes run the step
  /// templates, and they are forced inline, so the listed pass's loops do
  /// not hang on the compiler's inlining heuristics (CI checks with nm).
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <unsigned S>
  [[gnu::always_inline]] static std::uint32_t observe_decide_passive(
      const Lanes& lanes, env::AntId a, std::uint32_t& deferred) {
    constexpr std::uint32_t kGo = static_cast<std::uint8_t>(env::MaskedOp::kGo);
    const env::NestId nest = lanes.nest[a];
    if constexpr (S == 0) {
      // R1 was go(nest); R2 (line 14) is recruit(0, nest).
      lanes.op[a] = env::MaskedOp::kRecruit;
      lanes.active[a] = 0;
      lanes.targets[a] = nest;
    } else if constexpr (S == 1) {
      // Lines 14-17: j != nest means recruited — adopt j (nest := j holds
      // either way) and finalize after the block.
      const env::NestId j = lanes.results[a];
      const std::uint32_t moved = j != nest ? 1u : 0u;
      lanes.nest[a] = j;
      lanes.deferred[deferred] = {nest, j};
      deferred += moved;
      lanes.pending_final[a] = static_cast<std::uint8_t>(moved);
      lanes.op[a] = env::MaskedOp::kGo;  // R3 (line 18)
      lanes.targets[a] = j;
    } else if constexpr (S == 2) {
      lanes.op[a] = env::MaskedOp::kGo;  // R4 (line 19)
      lanes.targets[a] = nest;
    } else {
      // End of block: a recruited ant turns final (kPassive | 1 ==
      // kFinal) and recruits from the next round on; the others go.
      const std::uint8_t fin = lanes.pending_final[a];
      lanes.state[a] = static_cast<std::uint8_t>(lanes.state[a] | fin);
      lanes.pending_final[a] = 0;
      lanes.deferred[deferred].to = nest;
      deferred += fin;
      lanes.op[a] = static_cast<env::MaskedOp>(kGo + fin);
      lanes.active[a] = fin;
      lanes.targets[a] = nest;
      return fin;
    }
    return 0;
  }

  /// An active ant at block step S: lines 22-42. Its census update goes
  /// where observe_decide_passive's does. Returns where step 3 puts the
  /// ant (see Relist); `final_leaves` is 0 when final ants stay listed
  /// (optimal+settle).
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <unsigned S, typename Seen>
  [[gnu::always_inline]] static Relist observe_decide_active(
      const Lanes& lanes, const Seen seen, env::AntId a,
      std::uint32_t final_leaves, std::uint32_t& deferred) {
    constexpr std::uint32_t kGo = static_cast<std::uint8_t>(env::MaskedOp::kGo);
    constexpr auto kCase1 = static_cast<std::uint8_t>(ActiveCase::kCase1);
    constexpr auto kCase3 = static_cast<std::uint8_t>(ActiveCase::kCase3);
    const env::NestId nest = lanes.nest[a];
    if constexpr (S == 0) {
      // Line 23: nest_t := recruit(1, nest)'s j; R2 is go(nest_t).
      const env::NestId j = lanes.results[a];
      lanes.nest_t[a] = j;
      lanes.op[a] = env::MaskedOp::kGo;
      lanes.targets[a] = j;
    } else if constexpr (S == 1) {
      // Line 24: count_t := go(nest_t), then lines 25-42's case: case 3
      // (recruited away) iff nest_t != nest, else case 1 if the
      // population held up, case 2 if it fell. Case 3 adopts nest_t
      // (line 38), cases 1/2 already hold it, so nest := nest_t.
      const env::NestId nest_t = lanes.nest_t[a];
      const std::uint32_t count_t = seen.count(a, nest_t);
      const std::uint32_t count = lanes.count[a];
      const std::uint32_t moved = nest_t != nest ? 1u : 0u;
      const std::uint32_t fell = count_t < count ? 1u : 0u;
      const std::uint32_t case2 = fell & (moved ^ 1u);
      const std::uint32_t case1 = (fell | moved) ^ 1u;
      lanes.count_t[a] = count_t;
      lanes.count[a] = count + ((count_t - count) & (0u - case1));  // 27
      lanes.pending_passive[a] = static_cast<std::uint8_t>(case2);  // 34
      lanes.active_case[a] = static_cast<std::uint8_t>(1u + case2 + 2u * moved);
      lanes.nest[a] = nest_t;
      lanes.deferred[deferred] = {nest, nest_t};
      deferred += moved;
      // R3: case 2 recruit(0, nest) (line 35); cases 1/3 go(nest) (lines
      // 28, 39).
      lanes.op[a] = static_cast<env::MaskedOp>(kGo + case2);
      lanes.active[a] = 0;
      lanes.targets[a] = nest_t;
    } else if constexpr (S == 2) {
      // Lines 39-41 (case 3): count_n := go(nest) decides between
      // dropping out and adopting count_n as the reference.
      const std::uint8_t c = lanes.active_case[a];
      const std::uint32_t count_n = seen.count(a, nest);
      const std::uint32_t case3 = c == kCase3 ? 1u : 0u;
      const std::uint32_t fell = count_n < lanes.count_t[a] ? 1u : 0u;
      const std::uint32_t keep = case3 & (fell ^ 1u);
      const std::uint32_t count = lanes.count[a];
      lanes.count[a] = count + ((count_n - count) & (0u - keep));
      lanes.pending_passive[a] =
          static_cast<std::uint8_t>(lanes.pending_passive[a] | (case3 & fell));
      // R4: case 1 recruit(0, nest) (line 29); cases 2/3 go(nest) (lines
      // 36, 42).
      const std::uint32_t case1 = c == kCase1 ? 1u : 0u;
      lanes.op[a] = static_cast<env::MaskedOp>(kGo + case1);
      lanes.active[a] = 0;
      lanes.targets[a] = nest;
    } else {
      // End of block. Lines 29-31: case 1 with count_h (the home count
      // recruit(0) returned) == count means every active ant is here —
      // final. A pending drop-out turns passive (lines 34, 41); case 1
      // never holds one. kActive + 1 == kPassive, kActive + 2 == kFinal.
      const std::uint32_t case1 = lanes.active_case[a] == kCase1 ? 1u : 0u;
      const std::uint32_t fin =
          case1 &
          (seen.count(a, env::kHomeNest) == lanes.count[a] ? 1u : 0u);
      const std::uint32_t to_passive = lanes.pending_passive[a];
      lanes.state[a] = static_cast<std::uint8_t>(
          static_cast<std::uint8_t>(State::kActive) + to_passive + 2u * fin);
      lanes.pending_passive[a] = 0;
      lanes.active_case[a] = static_cast<std::uint8_t>(ActiveCase::kUndecided);
      lanes.deferred[deferred].to = nest;
      deferred += fin;
      // R1: active and final ants recruit(1, nest) (lines 21, 23); a new
      // passive ant goes (line 13).
      lanes.op[a] = static_cast<env::MaskedOp>(kGo + (to_passive ^ 1u));
      lanes.active[a] = 1;
      lanes.targets[a] = nest;
      return {(to_passive ^ 1u) & ((fin & final_leaves) ^ 1u), to_passive};
    }
    return {1u, 0u};
  }

  /// The laned pass's observe+decide for an ant that acted in round r.
  /// An active or passive ant runs the listed pass's step template at its
  /// own block step and applies its census update at once; the others
  /// take the general path.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <typename Seen>
  void observe_decide_laned(const Lanes& lanes, const Seen seen,
                            const env::Environment& env, env::AntId a) {
    const auto state = static_cast<State>(lanes.state[a]);
    if (state != State::kActive && state != State::kPassive) {
      observe_decide_general(a, lanes, seen, env);
      return;
    }
    switch (lanes.step[a]) {
      case 0:
        observe_decide_block<0>(lanes, seen, a);
        break;
      case 1:
        observe_decide_block<1>(lanes, seen, a);
        break;
      case 2:
        observe_decide_block<2>(lanes, seen, a);
        break;
      default:
        observe_decide_block<3>(lanes, seen, a);
        break;
    }
  }

  /// One laned active or passive ant at block step S. The template writes
  /// the ant's call for round r + 1 even when the ant does not act then;
  /// plan_inactive overwrites that row. Its census update (the commitment
  /// move of step 1, the finalization of step 3) is applied here, and a
  /// crash-scheduled ant stays out of both censuses.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <unsigned S, typename Seen>
  void observe_decide_block(const Lanes& lanes, const Seen seen,
                            env::AntId a) {
    std::uint32_t moved = 0;
    if (lanes.state[a] == static_cast<std::uint8_t>(State::kPassive)) {
      observe_decide_passive<S>(lanes, a, moved);
    } else {
      observe_decide_active<S>(lanes, seen, a, /*final_leaves=*/1u, moved);
    }
    lanes.step[a] = static_cast<std::uint8_t>((S + 1) & 3u);
    if (moved == 0) return;
    const CensusUpdate update = lanes.deferred[0];
    if constexpr (S == 3) ++finalized_count_;
    if (!counts_in_census(a)) return;
    if constexpr (S == 1) {
      --census_[update.from];
      ++census_[update.to];
    } else if constexpr (S == 3) {
      ++fin_census_[update.to];
    }
  }

  /// The general observe+decide: round 1's searches, settled ants, and
  /// the final ants that observe_finals does not cover (optimal+settle's,
  /// and every final ant of a laned colony). The observation follows
  /// from the state alone.
  // lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
  template <typename Seen>
  void observe_decide_general(std::size_t a, const Lanes& lanes,
                              const Seen seen, const env::Environment& env) {
    switch (static_cast<State>(state_[a])) {
      case State::kSearch: {
        const env::NestId found = env.location(static_cast<env::AntId>(a));
        apply_search(a, found, seen.count(a, found), seen.quality(a, found));
        break;
      }
      case State::kFinal:  // recruit(1, nest): j and the home count
        observe_final(a, lanes.results[a], seen.count(a, env::kHomeNest));
        break;
      default:  // settled: go(nest) forever, nothing to learn
        HH_ASSERT(static_cast<State>(state_[a]) == State::kSettled);
        break;
    }
    decide_one(a, {lanes.op, lanes.n}, {lanes.active, lanes.n},
               {lanes.targets, lanes.n});
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
  std::vector<std::uint32_t> full_house_streak_;  ///< empty unless settle_
  std::vector<std::uint32_t> fin_census_;  ///< committed census of correct
                                           ///< finalized ants
  // The listed pass's lists (see observe_decide_step). The census
  // updates are deferred until the pass is over: the censuses are sums,
  // and nothing reads them before agreement_census() runs after the pass.
  // The laned pass reads its one update of an ant back from entry 0.
  std::unique_ptr<CensusUpdate[]> deferred_;
  /// Passive ants, and the other ants that are not known final: together
  /// a superset of the non-final ants (only the listed pass drops ants,
  /// and only final ones; final is absorbing outside optimal+settle,
  /// whose finals stay listed). Built by the first listed pass after a
  /// reset (listed_).
  std::unique_ptr<env::AntId[]> passive_ants_;
  std::unique_ptr<env::AntId[]> other_ants_;
  std::uint32_t passive_count_ = 0;
  std::uint32_t other_count_ = 0;
  bool listed_ = false;
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
