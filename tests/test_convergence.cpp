// Tests of agreement detection and the convergence detector.
#include "core/convergence.hpp"

#include <gtest/gtest.h>

namespace hh::core {
namespace {

// Minimal controllable ant for detector tests.
class FakeAnt final : public Ant {
 public:
  explicit FakeAnt(env::NestId nest, bool finalized = false)
      : nest_(nest), finalized_(finalized) {}

  env::Action decide(std::uint32_t) override { return env::Action::idle(); }
  void observe(const env::Outcome&) override {}
  [[nodiscard]] env::NestId committed_nest() const override { return nest_; }
  [[nodiscard]] bool finalized() const override { return finalized_; }
  [[nodiscard]] std::string_view name() const override { return "fake"; }

  void set(env::NestId nest, bool finalized) {
    nest_ = nest;
    finalized_ = finalized;
  }

 private:
  env::NestId nest_;
  bool finalized_;
};

struct Fixture {
  explicit Fixture(std::vector<env::NestId> commitments,
                   std::vector<double> qualities = {1.0, 0.0})
      : environment(make_env_config(
            static_cast<std::uint32_t>(commitments.size()), qualities)),
        census(qualities.size() + 1) {
    colony.faults = env::FaultPlan::none(
        static_cast<std::uint32_t>(commitments.size()));
    colony.algorithm = "fake";
    for (env::NestId nest : commitments) {
      auto ant = std::make_unique<FakeAnt>(nest, true);
      fakes.push_back(ant.get());
      colony.ants.push_back(std::move(ant));
    }
  }

  static env::EnvironmentConfig make_env_config(std::uint32_t n,
                                                std::vector<double> q) {
    env::EnvironmentConfig cfg;
    cfg.num_ants = n;
    cfg.qualities = std::move(q);
    cfg.allow_idle = true;
    return cfg;
  }

  /// Run one idle environment round (advances the round counter).
  void tick() {
    std::vector<env::Action> idle(colony.size(), env::Action::idle());
    environment.step(idle);
  }

  Colony colony;
  std::vector<FakeAnt*> fakes;
  env::Environment environment;
  std::vector<std::uint32_t> census;  // the detector's per-round scratch
};

TEST(CurrentAgreement, UnanimousGoodNestDetected) {
  Fixture f({1, 1, 1});
  const auto agreed =
      current_agreement(f.colony, f.environment, ConvergenceMode::kCommitment);
  ASSERT_TRUE(agreed.has_value());
  EXPECT_EQ(*agreed, 1u);
}

TEST(CurrentAgreement, DisagreementReturnsNothing) {
  Fixture f({1, 1, 2}, {1.0, 1.0});
  EXPECT_FALSE(
      current_agreement(f.colony, f.environment, ConvergenceMode::kCommitment)
          .has_value());
}

TEST(CurrentAgreement, HomeCommitmentBlocksAgreement) {
  Fixture f({1, env::kHomeNest, 1});
  EXPECT_FALSE(
      current_agreement(f.colony, f.environment, ConvergenceMode::kCommitment)
          .has_value());
}

TEST(CurrentAgreement, BadNestNeverWins) {
  Fixture f({2, 2, 2});  // nest 2 has quality 0
  EXPECT_FALSE(
      current_agreement(f.colony, f.environment, ConvergenceMode::kCommitment)
          .has_value());
}

TEST(CurrentAgreement, FinalizedModeRequiresFinalizedAnts) {
  Fixture f({1, 1});
  f.fakes[0]->set(1, false);  // committed but not finalized
  EXPECT_FALSE(current_agreement(f.colony, f.environment,
                                 ConvergenceMode::kCommitmentFinalized)
                   .has_value());
  f.fakes[0]->set(1, true);
  EXPECT_TRUE(current_agreement(f.colony, f.environment,
                                ConvergenceMode::kCommitmentFinalized)
                  .has_value());
}

TEST(CurrentAgreement, FaultyAntsAreExempt) {
  Fixture f({1, 2, 1}, {1.0, 1.0});
  f.colony.faults.type[1] = env::FaultType::kByzantine;
  const auto agreed =
      current_agreement(f.colony, f.environment, ConvergenceMode::kCommitment);
  ASSERT_TRUE(agreed.has_value());
  EXPECT_EQ(*agreed, 1u);
}

TEST(CurrentAgreement, AllFaultyMeansNoAgreement) {
  Fixture f({1, 1});
  f.colony.faults.type[0] = env::FaultType::kCrash;
  f.colony.faults.type[1] = env::FaultType::kCrash;
  EXPECT_FALSE(
      current_agreement(f.colony, f.environment, ConvergenceMode::kCommitment)
          .has_value());
}

TEST(CurrentAgreement, PhysicalModeUsesLocations) {
  Fixture f({1, 1});
  // Commitments say nest 1, but everyone is physically at home.
  EXPECT_FALSE(
      current_agreement(f.colony, f.environment, ConvergenceMode::kPhysical)
          .has_value());
}

TEST(ConvergenceDetector, FiresImmediatelyWithoutStabilityWindow) {
  Fixture f({1, 1});
  ConvergenceDetector det(ConvergenceMode::kCommitment, 0);
  EXPECT_TRUE(det.update(f.colony, f.environment, f.census));
  EXPECT_TRUE(det.converged());
  EXPECT_EQ(det.winner(), 1u);
}

TEST(ConvergenceDetector, StabilityWindowDelaysDecision) {
  Fixture f({1, 1});
  ConvergenceDetector det(ConvergenceMode::kCommitment, 2);
  EXPECT_FALSE(det.update(f.colony, f.environment, f.census));
  f.tick();
  EXPECT_FALSE(det.update(f.colony, f.environment, f.census));
  f.tick();
  EXPECT_TRUE(det.update(f.colony, f.environment, f.census));
  // decision_round reports the start of the streak (round 0 here).
  EXPECT_EQ(det.decision_round(), 0u);
}

TEST(ConvergenceDetector, BrokenStreakResets) {
  Fixture f({1, 1});
  ConvergenceDetector det(ConvergenceMode::kCommitment, 1);
  EXPECT_FALSE(det.update(f.colony, f.environment, f.census));
  f.fakes[0]->set(env::kHomeNest, true);  // agreement breaks
  f.tick();
  EXPECT_FALSE(det.update(f.colony, f.environment, f.census));
  f.fakes[0]->set(1, true);
  f.tick();
  // The streak restarted.
  EXPECT_FALSE(det.update(f.colony, f.environment, f.census));
  f.tick();
  EXPECT_TRUE(det.update(f.colony, f.environment, f.census));
}

TEST(ConvergenceDetector, StickyOnceConverged) {
  Fixture f({1, 1});
  ConvergenceDetector det(ConvergenceMode::kCommitment, 0);
  ASSERT_TRUE(det.update(f.colony, f.environment, f.census));
  f.fakes[0]->set(2, true);  // later disagreement does not un-converge
  EXPECT_TRUE(det.update(f.colony, f.environment, f.census));
  EXPECT_EQ(det.winner(), 1u);
}

// --- table-driven pinning of the streak bookkeeping -------------------------
// observe_agreement() is fed one agreement per round (0 = none); expected
// convergence round/winner/decision_round pin the semantics exactly —
// including the stability_rounds == 0 immediate case, same-round flips,
// and streaks broken by agreement-free rounds.

struct StreakCase {
  const char* label;
  std::uint32_t stability_rounds;
  /// Per round r = 1, 2, ...: the agreed nest, 0 for no agreement.
  std::vector<env::NestId> agreements;
  /// 0 = never converges; otherwise the 1-based round update() first
  /// returns true.
  std::uint32_t converges_at;
  env::NestId winner;          ///< checked when converges_at != 0
  std::uint32_t decision_round;  ///< first round of the winning streak
};

TEST(ConvergenceDetector, StreakBookkeepingTable) {
  const std::vector<StreakCase> cases = {
      {"immediate with stability 0", 0, {2}, 1, 2, 1},
      {"gap then agreement, stability 0", 0, {0, 0, 3}, 3, 3, 3},
      {"stability 2 needs three consecutive rounds", 2, {1, 1, 1}, 3, 1, 1},
      {"flip restarts the streak", 1, {1, 2, 2}, 3, 2, 2},
      {"flip on the very next round, stability 0", 0, {1, 2}, 1, 1, 1},
      {"break by no-agreement restarts", 1, {1, 0, 1, 1}, 4, 1, 3},
      {"same nest after a break is a NEW streak", 2, {2, 2, 0, 2, 2, 2}, 6, 2, 4},
      {"alternating nests never satisfy stability 1", 1, {1, 2, 1, 2, 1, 2}, 0,
       0, 0},
      {"all empty never converges", 0, {0, 0, 0, 0}, 0, 0, 0},
      {"stability longer than the trace", 3, {1, 1, 1}, 0, 0, 0},
  };
  for (const StreakCase& c : cases) {
    ConvergenceDetector det(ConvergenceMode::kCommitment, c.stability_rounds);
    std::uint32_t fired_at = 0;
    for (std::uint32_t r = 1; r <= c.agreements.size(); ++r) {
      const env::NestId nest = c.agreements[r - 1];
      const bool converged = det.observe_agreement(
          nest == 0 ? std::nullopt : std::optional<env::NestId>(nest), r);
      if (converged && fired_at == 0) fired_at = r;
    }
    EXPECT_EQ(fired_at, c.converges_at) << c.label;
    EXPECT_EQ(det.converged(), c.converges_at != 0) << c.label;
    if (c.converges_at != 0) {
      EXPECT_EQ(det.winner(), c.winner) << c.label;
      EXPECT_EQ(det.decision_round(), c.decision_round) << c.label;
    }
  }
}

TEST(ConvergenceDetector, AgreementFreeRoundsDoNotTouchTheStreakStart) {
  // Regression: the old bookkeeping stamped streak_start_ on EVERY
  // transition, including rounds with no agreement at all. The streak
  // origin must come only from a round that actually started a streak.
  ConvergenceDetector det(ConvergenceMode::kCommitment, 1);
  EXPECT_FALSE(det.observe_agreement(std::optional<env::NestId>(1), 1));
  EXPECT_FALSE(det.observe_agreement(std::nullopt, 2));
  EXPECT_FALSE(det.observe_agreement(std::optional<env::NestId>(1), 3));
  EXPECT_TRUE(det.observe_agreement(std::optional<env::NestId>(1), 4));
  EXPECT_EQ(det.decision_round(), 3u);  // the streak that won began at 3
}

TEST(ConvergenceDetector, ResetForgetsEverything) {
  ConvergenceDetector det(ConvergenceMode::kCommitment, 1);
  EXPECT_FALSE(det.observe_agreement(std::optional<env::NestId>(2), 1));
  EXPECT_TRUE(det.observe_agreement(std::optional<env::NestId>(2), 2));
  ASSERT_TRUE(det.converged());
  det.reset();
  EXPECT_FALSE(det.converged());
  EXPECT_EQ(det.decision_round(), 0u);
  // A reset detector needs a full fresh streak again.
  EXPECT_FALSE(det.observe_agreement(std::optional<env::NestId>(1), 1));
  EXPECT_TRUE(det.observe_agreement(std::optional<env::NestId>(1), 2));
  EXPECT_EQ(det.winner(), 1u);
}

TEST(DefaultMode, MatchesAlgorithmSemantics) {
  EXPECT_EQ(default_mode(AlgorithmKind::kOptimal),
            ConvergenceMode::kCommitmentFinalized);
  EXPECT_EQ(default_mode(AlgorithmKind::kOptimalSettle),
            ConvergenceMode::kPhysical);
  EXPECT_EQ(default_mode(AlgorithmKind::kSimple), ConvergenceMode::kCommitment);
  EXPECT_EQ(default_mode(AlgorithmKind::kQuorum), ConvergenceMode::kCommitment);
}

}  // namespace
}  // namespace hh::core
