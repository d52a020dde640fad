// Colony construction: per-ant RNG streams, algorithm selection, and the
// Section 6 fault wrappers (crashed and Byzantine ants).
#ifndef HH_CORE_COLONY_HPP
#define HH_CORE_COLONY_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ant.hpp"
#include "env/faults.hpp"
#include "util/rng.hpp"

namespace hh::core {

/// Which house-hunting algorithm a colony runs.
enum class AlgorithmKind : std::uint8_t {
  kOptimal,        ///< Algorithm 2 (Section 4)
  kOptimalSettle,  ///< Algorithm 2 + the Section 4.2 termination fix
  kSimple,         ///< Algorithm 3 (Section 5)
  kRateBoosted,    ///< Section 6 improved-running-time variant
  kQualityAware,   ///< Section 6 non-binary-quality variant
  kUniformRecruit, ///< no-feedback baseline (negative control)
  kQuorum,         ///< biology-inspired quorum-threshold baseline
};

/// Human-readable algorithm name (the kind's row of the built-in
/// catalog, core/registry.cpp).
[[nodiscard]] std::string_view algorithm_name(AlgorithmKind kind);

/// Tunables for the algorithms that take parameters.
struct AlgorithmParams {
  /// QuorumAnt threshold = fraction * n. Must exceed 1/k (the model's
  /// round-1 search fills every nest to ~n/k) or every good nest locks
  /// immediately and the colony splits.
  double quorum_fraction = 0.35;
  double quorum_tandem_rate = 0.5;    ///< QuorumAnt pre-quorum rate scale
  double uniform_recruit_prob = 0.5;  ///< UniformRecruitAnt constant rate
  /// Section 6 extension ("assuming ants know only an approximation of
  /// n"): each ant of the Algorithm-3 family receives a private belief
  /// n~ drawn uniformly from [n(1-e), n(1+e)] instead of the true n.
  /// 0 = exact knowledge (the paper's base model).
  double n_estimate_error = 0.0;
  /// IdleSearchAnt: probability that a passive ("idle") ant spends a
  /// recruitment round re-scouting instead of waiting at the home nest
  /// (the Afek–Gordon–Sulamy idle-ants-as-reserve rule; see
  /// core/idle_search_ant.hpp).
  double idle_search_prob = 0.25;
};

/// A set of ants plus the fault assignment they were built under.
struct Colony {
  std::vector<std::unique_ptr<Ant>> ants;
  env::FaultPlan faults;
  std::string algorithm;

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(ants.size());
  }
  /// True iff ant a is correct (not crash-scheduled, not Byzantine).
  [[nodiscard]] bool correct(env::AntId a) const { return faults.correct(a); }
};

/// Builds one (correct) ant; used to assemble colonies. The Rng is the
/// ant's private stream.
using AntFactory =
    std::function<std::unique_ptr<Ant>(env::AntId, util::Rng)>;

/// Section 6 extension: an ant's private belief of the colony size, drawn
/// uniformly from [n(1-e), n(1+e)] off the ant's own stream. e = 0 returns
/// the exact n (the base model) without touching the stream. The one
/// definition of the draw: the Algorithm-3 family's catalog rows, its
/// pack (SimpleFamilyPack's reset) and registered variants all call it,
/// so believed-n draws stay identical across both engines.
[[nodiscard]] std::uint32_t believed_colony_size(std::uint32_t num_ants,
                                                 double error, util::Rng& rng);

/// Assemble a colony of `num_ants` ants from `factory`, replacing faulty
/// positions per `plan`: crash victims are wrapped in CrashProneAnt and
/// Byzantine positions are replaced by ByzantineAnt. Per-ant RNG streams
/// are derived deterministically from `seed`.
[[nodiscard]] Colony make_colony(std::uint32_t num_ants, const AntFactory& factory,
                                 env::FaultPlan plan, std::uint64_t seed,
                                 std::string algorithm);

/// Assemble a colony running a built-in algorithm with no faults. Both
/// built-in overloads build each ant with the kind's catalog row
/// (core/registry.cpp).
[[nodiscard]] Colony make_colony(std::uint32_t num_ants, AlgorithmKind kind,
                                 std::uint64_t seed,
                                 const AlgorithmParams& params = {});

/// Assemble a colony running a built-in algorithm under a fault plan.
[[nodiscard]] Colony make_colony(std::uint32_t num_ants, AlgorithmKind kind,
                                 env::FaultPlan plan, std::uint64_t seed,
                                 const AlgorithmParams& params = {});

/// Crash-fault wrapper (Section 6): delegates to the wrapped ant until the
/// crash round, then idles in place forever (the strongest interpretation
/// of a crash in a model where every ant must act each round).
class CrashProneAnt final : public Ant {
 public:
  CrashProneAnt(std::unique_ptr<Ant> inner, std::uint32_t crash_round);

  [[nodiscard]] env::Action decide(std::uint32_t round) override;
  void observe(const env::Outcome& outcome) override;
  [[nodiscard]] env::NestId committed_nest() const override {
    return inner_->committed_nest();
  }
  [[nodiscard]] bool finalized() const override { return inner_->finalized(); }
  [[nodiscard]] std::string_view name() const override { return "crash-prone"; }

  [[nodiscard]] bool crashed() const { return crashed_; }

 private:
  std::unique_ptr<Ant> inner_;
  std::uint32_t crash_round_;
  bool crashed_ = false;
};

/// How many rounds a Byzantine ant scouts before it starts recruiting —
/// and the above-any-real-quality sentinel its worst-nest tracker starts
/// from. Shared with the packed engine's fault lanes (core/ant_pack.cpp),
/// which must mirror the adversary exactly.
inline constexpr std::uint32_t kByzantineScoutRounds = 8;
inline constexpr double kByzantineNoTargetQuality = 2.0;

/// Byzantine ant (Section 6 "malicious faults"): spends a few rounds
/// searching for the worst nest it can find, then actively recruits the
/// colony toward it every round, forever, ignoring all feedback.
class ByzantineAnt final : public Ant {
 public:
  ByzantineAnt(std::uint32_t num_ants, util::Rng rng,
               std::uint32_t scout_rounds = kByzantineScoutRounds);

  [[nodiscard]] env::Action decide(std::uint32_t round) override;
  void observe(const env::Outcome& outcome) override;
  [[nodiscard]] env::NestId committed_nest() const override { return target_; }
  [[nodiscard]] std::string_view name() const override { return "byzantine"; }

 private:
  util::Rng rng_;
  std::uint32_t scout_rounds_;
  std::uint32_t rounds_scouted_ = 0;
  env::NestId target_ = env::kHomeNest;  ///< worst nest found so far
  double target_quality_ = kByzantineNoTargetQuality;
};

}  // namespace hh::core

#endif  // HH_CORE_COLONY_HPP
