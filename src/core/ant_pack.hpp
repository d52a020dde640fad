// The packed (struct-of-arrays) ant engine — the zero-dispatch fast path
// for large sweeps.
//
// The per-object path models each ant as a heap-allocated polymorphic
// state machine: every round costs n virtual decide() calls, n virtual
// observe() calls, and another n virtual committed_nest() calls in the
// convergence detector. But the paper's colonies are n IDENTICAL
// probabilistic FSMs (Section 2), so an algorithm's whole colony can be
// run as parallel state arrays — one state/nest/count/RNG lane per ant —
// with a single non-virtual decide/observe pass per round over
// contiguous memory.
//
// Equivalence contract: a pack must reproduce the per-object colony
// BIT-IDENTICALLY — same per-ant RNG streams (seeded exactly as
// make_colony seeds them), same draw sequence, same floating-point
// expressions — so RunResults match the reference path for every seed.
// tests/test_ant_pack.cpp enforces this for every packed algorithm at
// 1/2/8 runner threads.
//
// Layering (the phase-aware decision-kernel split):
//   * DERIVED packs implement the algorithm's correct-ant kernels:
//     decide_masked() produces the acting ants' calls and the observe
//     kernels absorb results — always drawing per-ant RNG in ant order,
//     exactly as the scalar ants would.
//   * The BASE class owns the generic fault lanes (crash rounds,
//     Byzantine scout/recruit machines mirrored from the core fault
//     wrappers, driven by env::FaultPlan): it overlays faulty ants onto
//     each round's op/active/target lanes and gates the derived kernels
//     to the acting correct ants, so every algorithm gains packed fault
//     support without fault code of its own.
//   * Every round is one masked round, whatever the observation model:
//     the driver fills the op/active/target lanes and runs
//     Environment::step_masked_recruit_quiet. A colony-uniform round
//     (every ant searches, recruits, or goes) is one whose op lane
//     happens to be constant. The observe kernels read each call's
//     returned count and quality through a view picked once per round
//     (with_seen): the true values of the ant's nest under exact
//     observation, the environment's per-ant perception lanes under
//     noise. In fault-free, fully awake, exact steady state the observe
//     also writes the next round's lanes (observe_masked_quiet_then_decide),
//     so no separate decide sweep runs.
//
// Packs exist for every built-in algorithm: the Algorithm-3 family
// (simple, rate-boosted, quality-aware, uniform-recruit), the quorum
// baseline, and Algorithm 2 (optimal, with and without the Section 4.2
// settle fix; see optimal_pack.cpp). Partial synchrony runs packed too:
// the driver pre-draws the round's awake mask (same scheduler stream and
// ant order as the scalar loop) and hands it to begin_round(); the base
// overlays sleeping ants as MaskedOp::kIdle rows exactly as it overlays
// crashed ants, and each pack keeps per-ant phase lanes so a slept ant's
// state machine freezes and resumes like its scalar counterpart.
#ifndef HH_CORE_ANT_PACK_HPP
#define HH_CORE_ANT_PACK_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/capabilities.hpp"
#include "core/colony.hpp"
#include "core/convergence.hpp"
#include "env/environment.hpp"
#include "env/faults.hpp"
#include "env/nest.hpp"
#include "env/pairing.hpp"
#include "util/rng.hpp"

namespace hh::core {

/// A whole colony as parallel state arrays. One virtual call per ROUND
/// (not per ant); the loops inside are non-virtual and allocation-free.
class AntPack {
 public:
  AntPack(const AntPack&) = delete;
  AntPack& operator=(const AntPack&) = delete;
  virtual ~AntPack();

  // --- driver interface (core::Simulation) --------------------------------

  /// Partial synchrony: install the round's awake mask before the round's
  /// fill_masked. awake[a] == 0 freezes ant a for the round: its row
  /// becomes MaskedOp::kIdle, its decide kernel draws nothing, and its
  /// observe kernel is skipped — exactly the scalar scheduler-gated loop.
  /// The driver draws the mask (scheduler stream, ant order) so the pack
  /// consumes no scheduler randomness itself. The mask is copied; it does
  /// not need to outlive the call. Omitting the call means all-awake.
  void begin_round(std::span<const std::uint8_t> awake);

  /// Fill every ant's op/active/target lanes for `round` — fault and
  /// sleep rows written by the base class, acting correct ants by the
  /// derived decide kernel (drawing the same RNG sequence the scalar
  /// colony would). Returns at once when the lanes of `round` are already
  /// planned: the previous round's observe_masked_quiet_then_decide wrote
  /// them.
  void fill_masked(std::uint32_t round, std::span<env::MaskedOp> op,
                   std::span<std::uint8_t> active,
                   std::span<env::NestId> targets);

  /// Absorb a masked round: results are read straight off the environment
  /// (counts, locations, the recruit() return lane, and under a noisy
  /// observation model the perception lanes). `op` and `targets` must be
  /// the lanes fill_masked produced for this round — each ant's result
  /// kind resolves through them.
  void observe_masked_quiet(const env::Environment& env,
                            std::span<const env::MaskedOp> op,
                            std::span<const env::NestId> targets);

  /// The fused tail of a fault-free, fully-awake round under exact
  /// observation (ContractViolation under a noisy model): absorb round
  /// `round` AND overwrite the same lanes with every ant's round
  /// `round + 1` decision, so the next fill_masked returns at once. Falls
  /// back to the plain observe_masked_quiet (the next fill_masked then
  /// plans as usual) when fault or sleep lanes are live, or when the pack
  /// does not implement the fusion hook. Must not be called under partial
  /// synchrony — the sleep overlay belongs to fill_masked.
  void observe_masked_quiet_then_decide(std::uint32_t round,
                                        const env::Environment& env,
                                        std::span<env::MaskedOp> op,
                                        std::span<std::uint8_t> active,
                                        std::span<env::NestId> targets);

  /// Overwrite `census` (size k+1, indexed by nest) with the number of
  /// CORRECT ants committed to each nest (faulty ants are exempt from
  /// convergence, matching the scalar path's committed_census). The base
  /// serves it from the shared commitment lanes; packs that adopt nests
  /// exclusively through adopt() need no override.
  virtual void committed_census(std::span<std::uint32_t> census) const;

  /// The agreement census the convergence detector consumes, under the
  /// algorithm's convergence notion (see core::current_agreement):
  /// `census[i]` counts the correct ants agreeing on nest i — committed
  /// (kCommitment), committed AND finalized (kCommitmentFinalized), or
  /// physically located there and finalized (kPhysical). Returns the
  /// number of correct ants the census was taken over. The base handles
  /// kCommitment via committed_census(); packs whose algorithms default
  /// to another mode override.
  [[nodiscard]] virtual std::uint32_t agreement_census(
      ConvergenceMode mode, const env::Environment& env,
      std::span<std::uint32_t> census) const;

  /// Whether ant a has durably decided (see Ant::finalized). Byzantine
  /// ants never report finalized (their lanes never run the correct-ant
  /// kernels), matching core::ByzantineAnt.
  [[nodiscard]] virtual bool finalized(env::AntId a) const;

  /// True iff any ant is finalized — lets the driver skip the per-ant
  /// finalized() scan when attributing tandem runs vs transports.
  [[nodiscard]] virtual bool any_finalized() const;

  /// Number of `ants` (each listed at most once) that are finalized — the
  /// batch form of finalized() the driver feeds the round's successful
  /// recruiters (env::Environment::successful_recruiters()) to attribute
  /// transports. One virtual call per round instead of one per ant; packs
  /// with a state lane override it with a flat counted loop.
  [[nodiscard]] virtual std::uint32_t count_finalized(
      std::span<const env::AntId> ants) const;

  /// Install the per-ant fault lanes a sampled env::FaultPlan describes:
  /// crash victims idle from their crash round on (their lanes freeze,
  /// exactly like core::CrashProneAnt freezes its inner ant); Byzantine
  /// positions never run the algorithm kernel at all — they scout for the
  /// worst nest, then actively recruit toward it forever
  /// (core::ByzantineAnt). Call before reset(); reset() re-derives the
  /// Byzantine scout state but keeps the installed plan. Allocation-free
  /// after the first installation at a given colony size.
  void install_fault_plan(const env::FaultPlan& plan);

  /// Rewind the whole colony to its pre-round-1 state under a new colony
  /// seed, reusing every lane — per-ant RNG streams are re-derived exactly
  /// as construction derives them (mix_seed(colony_seed, ant, 0xA17),
  /// including the believed-n draw order), so a reset pack is
  /// indistinguishable from a freshly built one. Returns false when the
  /// pack does not support in-place reset (the caller reconstructs); the
  /// built-in packs all return true. Allocation-free.
  [[nodiscard]] bool reset(std::uint64_t colony_seed);

  /// Colony size n.
  [[nodiscard]] std::uint32_t size() const { return num_ants_; }

  /// Stable algorithm name (matches algorithm_name(kind)).
  [[nodiscard]] virtual std::string_view name() const = 0;

 protected:
  AntPack(std::uint32_t num_ants, std::uint32_t num_nests);

  // --- the decision-kernel interface derived packs implement ---------------

  /// reset() body: re-derive every lane from `colony_seed`. Byzantine
  /// positions must skip the algorithm's per-ant construction draws
  /// (their scalar counterparts never construct the inner ant); use
  /// byzantine(a). Return false if in-place reset is unsupported.
  [[nodiscard]] virtual bool do_reset(std::uint64_t colony_seed) = 0;

  /// Masked decide kernel: for every ant with act[a] != 0 write op[a]
  /// (+ active/targets as the op requires), drawing per-ant RNG exactly
  /// as the scalar ant's decide() would. Rows with act[a] == 0 are the
  /// base class's (faulty ants) — leave them untouched.
  virtual void decide_masked(std::uint32_t round,
                             std::span<const std::uint8_t> act,
                             std::span<env::MaskedOp> op,
                             std::span<std::uint8_t> active,
                             std::span<env::NestId> targets);

  /// Masked observe kernel: derive each acting ant's results from the
  /// environment (location(), recruit_results(), and the returned counts
  /// and qualities through with_seen()) and the round's op/target lanes
  /// — op[a] is the single source of truth for whether ant a's result is
  /// a recruit return or a visit count (no kernel re-derives its decide
  /// table).
  virtual void observe_masked_quiet_acting(std::span<const std::uint8_t> act,
                                           const env::Environment& env,
                                           std::span<const env::MaskedOp> op,
                                           std::span<const env::NestId> targets);

  /// Fusion hook behind observe_masked_quiet_then_decide. The caller's
  /// gates guarantee every lane acts (no faults, no sleepers) and that
  /// observation is exact, so implementations read true counts directly.
  /// Implementations observe every ant quietly and immediately rewrite
  /// its op/active/target lanes with the NEXT round's decision — round
  /// masked_round() + 1 — in one pass over the state lanes instead of an
  /// observe sweep plus a decide sweep, then return true. The lanes come
  /// in holding this round's decisions, so a row whose decision does not
  /// change may be left as it is. The default opts out: return false with
  /// NO side effects (the caller then runs the plain quiet observe).
  [[nodiscard]] virtual bool fused_observe_decide(
      const env::Environment& /*env*/, std::span<env::MaskedOp> /*op*/,
      std::span<std::uint8_t> /*active*/, std::span<env::NestId> /*targets*/) {
    return false;
  }

  // --- what a call returned, as the observe kernels read it ---------------
  // A search or go call returns the count (and quality) of the nest the
  // ant stands in, a recruit call the home nest's count. The observe
  // kernels read them through one of two views, which with_seen() picks
  // once per round — never per ant.

  /// Exact observation: the true values of the nest the ant stands in.
  struct ExactSeen {
    const std::uint32_t* counts;  ///< by nest
    const double* qualities;      ///< nest i at index i - 1
    [[nodiscard]] std::uint32_t count(std::size_t /*a*/,
                                      env::NestId nest) const {
      return counts[nest];
    }
    [[nodiscard]] double quality(std::size_t /*a*/, env::NestId nest) const {
      return qualities[nest - 1];
    }
  };

  /// Noisy observation: ant a's own perceived values, which the
  /// environment's perception pass drew for the nest it stands in.
  struct NoisySeen {
    const std::uint32_t* counts;  ///< by ant
    const double* qualities;      ///< by ant
    [[nodiscard]] std::uint32_t count(std::size_t a,
                                      env::NestId /*nest*/) const {
      return counts[a];
    }
    [[nodiscard]] double quality(std::size_t a, env::NestId /*nest*/) const {
      return qualities[a];
    }
  };

  /// The exact view of `env`'s last round.
  [[nodiscard]] static ExactSeen exact_seen(const env::Environment& env) {
    return {env.counts().data(), env.qualities().data()};
  }

  /// Run body(view) with the view `env`'s observation model calls for
  /// (only a noisy model fills the perception lanes).
  template <typename Body>
  static void with_seen(const env::Environment& env, Body&& body) {
    if (env.perceived_counts().empty()) {
      body(exact_seen(env));
    } else {
      body(NoisySeen{env.perceived_counts().data(),
                     env.perceived_qualities().data()});
    }
  }

  // --- fault-lane helpers for derived kernels ------------------------------

  [[nodiscard]] bool has_faults() const { return has_faults_; }
  /// The round whose lanes were last planned (by fill_masked() or the
  /// fused observe+decide) — for kernels that need the round number back.
  [[nodiscard]] std::uint32_t masked_round() const { return masked_round_; }
  /// True iff ant a is Byzantine (its lane never runs the derived kernel).
  [[nodiscard]] bool byzantine(env::AntId a) const {
    return has_faults_ && fault_type_[a] ==
                              static_cast<std::uint8_t>(env::FaultType::kByzantine);
  }
  /// True iff ant a belongs in convergence censuses (correct ants only;
  /// crash-SCHEDULED ants are exempt from the start, like the scalar
  /// path's Colony::correct).
  [[nodiscard]] bool counts_in_census(env::AntId a) const {
    return !has_faults_ ||
           fault_type_[a] == static_cast<std::uint8_t>(env::FaultType::kNone);
  }
  /// Number of correct ants (the census total).
  [[nodiscard]] std::uint32_t correct_count() const {
    return has_faults_ ? correct_count_ : num_ants_;
  }

  // --- shared commitment lanes ---------------------------------------------
  // Every pack tracks one committed nest per ant plus the incremental
  // census of correct ants over it; the lanes and their maintenance live
  // here ONCE so the census-exemption rule cannot drift between packs.

  /// Commitment change with census maintenance (correct ants only).
  void adopt(std::size_t a, env::NestId j) {
    if (counts_in_census(static_cast<env::AntId>(a))) {
      --census_[nest_[a]];
      ++census_[j];
    }
    nest_[a] = j;
  }

  /// Rewind the commitment lanes to round 0: every ant committed to the
  /// home nest, census over the correct ants (do_reset calls this).
  void reset_commitments();

  std::vector<env::NestId> nest_;      ///< committed nest per ant
  std::vector<std::uint32_t> census_;  ///< committed census, correct ants

 private:
  /// The acting lane: 1 = run the derived kernels this round. A
  /// fault-free pack's acting lane IS its awake lane; a faulted pack's is
  /// act_, which fill_masked rewrites every round.
  [[nodiscard]] std::span<const std::uint8_t> act() const {
    return has_faults_ ? std::span<const std::uint8_t>(act_) : awake_;
  }

  /// Recompute act_ for `round` and write the faulty ants'
  /// op/active/target rows.
  void overlay_faults(std::uint32_t round, std::span<env::MaskedOp> op,
                      std::span<std::uint8_t> active,
                      std::span<env::NestId> targets);

  /// Burn one scout round for Byzantine ant a (it searched this round).
  void scout_round_done(env::AntId a) {
    if (++byz_scouted_[a] == kByzantineScoutRounds) --byz_scouting_;
  }

  std::uint32_t num_ants_;
  bool has_faults_ = false;
  std::uint32_t correct_count_ = 0;
  std::uint32_t byz_count_ = 0;
  std::uint32_t masked_round_ = 0;  ///< see masked_round()
  bool any_asleep_ = false;         ///< current round's mask has a sleeper
  std::vector<std::uint8_t> act_;   ///< faulted packs: see act()
  std::vector<std::uint8_t> awake_;  ///< partial synchrony: 1 = acts
  std::vector<std::uint8_t> fault_type_;     ///< env::FaultType per ant
  std::vector<std::uint32_t> crash_round_;   ///< round >= which the ant idles
  std::vector<env::NestId> byz_target_;      ///< worst nest found so far
  std::vector<double> byz_quality_;          ///< its quality (2.0 = none yet)
  // A Byzantine ant scouts for kByzantineScoutRounds SEARCHES, not rounds:
  // like the scalar ByzantineAnt's rounds_scouted_, the counter only
  // advances when the ant actually searched, so sleeping through a round
  // stretches its scout window. byz_scouting_ counts the ants still in
  // theirs (0 = the worst-nest scan can be skipped entirely).
  std::vector<std::uint8_t> byz_scouted_;    ///< searches done, saturates
  std::uint32_t byz_scouting_ = 0;
};

/// True iff `kind` has a packed implementation.
[[nodiscard]] bool packed_available(AlgorithmKind kind);

/// The declared capability matrix of `kind`'s packed engine — what
/// configurations the pack may run, consumed by the data-driven engine
/// selection (core/capabilities.hpp, core/registry.hpp). Every built-in
/// pack rides the AntPack base's fault lanes and masked observation, so
/// they all declare Capabilities::standard_pack(); tests/test_registry.cpp
/// holds each declaration to what tests/test_ant_pack.cpp exercises.
[[nodiscard]] Capabilities packed_capabilities(AlgorithmKind kind);

/// Build the packed colony for `kind`, or nullptr if none exists.
/// `colony_seed` is the same seed make_colony would receive; per-ant RNG
/// streams are derived from it identically to the per-object path.
/// `num_nests` is k (packs keep an incrementally-maintained commitment
/// census of size k+1). `faults`, when non-null, is the sampled plan the
/// scalar path would wrap ants with — installed as pack-level fault lanes.
[[nodiscard]] std::unique_ptr<AntPack> make_ant_pack(
    AlgorithmKind kind, std::uint32_t num_ants, std::uint32_t num_nests,
    std::uint64_t colony_seed, const AlgorithmParams& params,
    const env::FaultPlan* faults = nullptr);

}  // namespace hh::core

#endif  // HH_CORE_ANT_PACK_HPP
