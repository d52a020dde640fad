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
//   * DERIVED packs implement the algorithm's correct-ant kernel: one
//     round kernel, observe_decide(), absorbs each ant's results of round
//     r and writes its call for round r + 1 in the same pass — always
//     drawing per-ant RNG in ant order, exactly as the scalar ants would.
//   * The BASE class owns the round-1 plan (every acting ant searches,
//     the first call of every built-in algorithm) and the generic fault
//     lanes (crash rounds, Byzantine scout/recruit machines mirrored from
//     the core fault wrappers, driven by env::FaultPlan): it tells the
//     kernel which ants act in each of the two rounds and writes the rows
//     of the ants that do not, so every algorithm gains packed fault
//     support without fault code of its own.
//   * Every round is one masked round, whatever the observation model:
//     the driver runs Environment::step_masked_recruit_quiet over the
//     op/active/target lanes, then one observe_and_plan() pass turns them
//     into the next round's. A colony-uniform round (every ant searches,
//     recruits, or goes) is one whose op lane happens to be constant. The
//     kernel reads each call's returned count and quality through a view
//     picked once per round (with_seen): the true values of the ant's
//     nest under exact observation, the environment's per-ant perception
//     lanes under noise.
//
// Packs exist for every built-in algorithm: the Algorithm-3 family
// (simple, rate-boosted, quality-aware, uniform-recruit), the quorum
// baseline, and Algorithm 2 (optimal, with and without the Section 4.2
// settle fix; see optimal_pack.cpp). Partial synchrony runs packed too:
// the driver draws each round's awake mask (same scheduler stream and
// ant order as the scalar loop) before the pass that plans the round;
// a sleeping ant's row is MaskedOp::kIdle, exactly as a crashed ant's
// is, and each pack keeps per-ant phase lanes so a slept ant's state
// machine freezes and resumes like its scalar counterpart.
#ifndef HH_CORE_ANT_PACK_HPP
#define HH_CORE_ANT_PACK_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

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

  /// Plan round 1 into the op/active/target lanes: every acting ant
  /// searches (every pack's state machine opens with a search() it draws
  /// nothing to decide, as every built-in algorithm's does), and the base
  /// writes the fault and sleep rows. `awake` is
  /// round 1's awake mask (awake[a] == 0 idles ant a; empty = every ant
  /// awake, the fully synchronous model). Call before round 1, after
  /// construction or reset().
  void plan_first_round(std::span<const std::uint8_t> awake,
                        std::span<env::MaskedOp> op,
                        std::span<std::uint8_t> active,
                        std::span<env::NestId> targets);

  /// The round tail: absorb round r, which `env` has just run over the
  /// lanes the previous call (or plan_first_round) planned, and overwrite
  /// the same lanes with round r + 1's calls in one pass. Results are
  /// read straight off the environment (counts, locations, the recruit()
  /// return lane, and under a noisy observation model the perception
  /// lanes). `awake` is round r's awake mask and `awake_next` round
  /// r + 1's (both empty under full synchrony); the driver draws the
  /// masks, so the pack consumes no scheduler randomness itself.
  void observe_and_plan(const env::Environment& env,
                        std::span<const std::uint8_t> awake,
                        std::span<const std::uint8_t> awake_next,
                        std::span<env::MaskedOp> op,
                        std::span<std::uint8_t> active,
                        std::span<env::NestId> targets);

  /// Overwrite `census` (size k+1, indexed by nest) with the number of
  /// CORRECT ants committed to each nest (faulty ants are exempt from
  /// convergence, matching the scalar path's committed_census), served
  /// from the shared commitment lanes every pack maintains through adopt().
  void committed_census(std::span<std::uint32_t> census) const;

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

  /// Number of `ants` (each listed at most once) that have durably
  /// decided (see Ant::finalized) — the driver feeds it the round's
  /// successful recruiters (env::Environment::successful_recruiters()) to
  /// attribute transports, one virtual call per round. The base returns
  /// 0: only packs whose algorithms finalize override it. Byzantine ants
  /// never count (their lanes never run the correct-ant kernels),
  /// matching core::ByzantineAnt.
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
  /// indistinguishable from a freshly built one. Allocation-free.
  void reset(std::uint64_t colony_seed);

  /// Colony size n.
  [[nodiscard]] std::uint32_t size() const { return num_ants_; }

 protected:
  AntPack(std::uint32_t num_ants, std::uint32_t num_nests);

  // --- the decision-kernel interface derived packs implement ---------------

  /// reset() body: re-derive every lane from `colony_seed`. Byzantine
  /// positions must skip the algorithm's per-ant construction draws
  /// (their scalar counterparts never construct the inner ant); use
  /// byzantine(a).
  virtual void do_reset(std::uint64_t colony_seed) = 0;

  /// Which ants run the round kernel: `acted_lane` for the round being
  /// absorbed, `acts_lane` for the round being planned (1 = correct, not
  /// crashed, awake). Null lanes mean every ant in both rounds — the
  /// fault-free, fully synchronous colony; with_views() turns that case
  /// into EveryAnt, so no per-ant test remains.
  struct Acting {
    const std::uint8_t* acted_lane = nullptr;
    const std::uint8_t* acts_lane = nullptr;
    [[nodiscard]] bool acted(std::size_t a) const { return acted_lane[a] != 0; }
    [[nodiscard]] bool acts(std::size_t a) const { return acts_lane[a] != 0; }
  };

  /// Acting with null lanes, as a type.
  struct EveryAnt {
    [[nodiscard]] static bool acted(std::size_t /*a*/) { return true; }
    [[nodiscard]] static bool acts(std::size_t /*a*/) { return true; }
  };

  /// The round kernel: for each ant, absorb round r's results if it acted
  /// in round r (env.round()), then write its op row (+ active/target as
  /// the op requires) for round r + 1 if it acts then, drawing per-ant
  /// RNG exactly as the scalar ant's observe() and decide() would. An
  /// ant's own op/target rows still hold its round-r call when its
  /// observe runs; rows of ants that do not act in round r + 1 are the
  /// base class's, written after the kernel.
  virtual void observe_decide(const env::Environment& env, Acting acting,
                              std::span<env::MaskedOp> op,
                              std::span<std::uint8_t> active,
                              std::span<env::NestId> targets) = 0;

  // --- what a call returned, as the round kernels read it -----------------
  // A search or go call returns the count (and quality) of the nest the
  // ant stands in, a recruit call the home nest's count. The kernels read
  // them through one of two views, which with_seen() picks once per round
  // — never per ant.

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

  /// Run body(view) with the view `env`'s observation model calls for
  /// (only a noisy model fills the perception lanes).
  template <typename Body>
  static void with_seen(const env::Environment& env, Body&& body) {
    if (env.perceived_counts().empty()) {
      body(ExactSeen{env.counts().data(), env.qualities().data()});
    } else {
      body(NoisySeen{env.perceived_counts().data(),
                     env.perceived_qualities().data()});
    }
  }

  /// Run body(view, acting) with with_seen()'s view and `acting`, or
  /// EveryAnt when its lanes are null: a kernel's per-ant loop then
  /// compiles four times (exact or noisy, every ant or laned) and tests
  /// neither mode per ant.
  template <typename Body>
  static void with_views(const env::Environment& env, Acting acting,
                         Body&& body) {
    with_seen(env, [&](const auto& seen) {
      if (acting.acted_lane == nullptr) {
        body(seen, EveryAnt{});
      } else {
        body(seen, acting);
      }
    });
  }

  // --- fault-lane helpers for derived kernels ------------------------------

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
  /// Faulted packs: write `lane` — which ants run the kernel in `round`
  /// (correct, or crash-scheduled and not yet crashed; awake).
  void acting_lane(std::uint32_t round, std::span<const std::uint8_t> awake,
                   std::span<std::uint8_t> lane) const;

  /// Write the rows of the ants that do not run the kernel in the round
  /// just planned: sleepers and crashed ants idle; awake Byzantine ants
  /// scout, then recruit toward the worst nest they found.
  void plan_inactive(std::span<const std::uint8_t> awake,
                     std::span<env::MaskedOp> op,
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
  // Faulted packs' acting lanes (see acting_lane) for the planned round
  // and the one being planned; observe_and_plan swaps them.
  std::vector<std::uint8_t> act_;
  std::vector<std::uint8_t> next_act_;
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

// The pack modules' factories (Algorithm 2's is in optimal_pack.hpp)
// share one signature, so the built-in catalog (core/registry.cpp) names
// them directly. `variant` is the built-in to build, `num_nests` is k
// (packs keep a commitment census of size k+1), `colony_seed` the seed
// make_colony would receive (per-ant streams are derived from it exactly
// as the per-object path derives them), and `faults`, when non-null, the
// sampled plan the scalar path would wrap ants with, installed as
// pack-level fault lanes.

/// The Algorithm-3 family's pack (simple, rate-boosted, quality-aware,
/// uniform-recruit).
[[nodiscard]] std::unique_ptr<AntPack> make_simple_family_pack(
    AlgorithmKind variant, std::uint32_t num_ants, std::uint32_t num_nests,
    std::uint64_t colony_seed, const AlgorithmParams& params,
    const env::FaultPlan* faults);

/// The quorum baseline's pack (one variant: `variant` is not read).
[[nodiscard]] std::unique_ptr<AntPack> make_quorum_pack(
    AlgorithmKind variant, std::uint32_t num_ants, std::uint32_t num_nests,
    std::uint64_t colony_seed, const AlgorithmParams& params,
    const env::FaultPlan* faults);

}  // namespace hh::core

#endif  // HH_CORE_ANT_PACK_HPP
