// Cross-layer tests: the observation model really distorts what ants see
// through the environment, and the distortions have the promised
// statistical properties at the Outcome level.
#include <cmath>

#include <gtest/gtest.h>

#include "env/environment.hpp"
#include "env/observation.hpp"
#include "test_util.hpp"

namespace hh::env {
namespace {

EnvironmentConfig base_config(std::uint32_t n) {
  EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = {1.0, 0.0};
  cfg.seed = 99;
  return cfg;
}

TEST(NoiseIntegration, GoCountsAreDistortedButUnbiased) {
  constexpr std::uint32_t kN = 100;
  Environment e(base_config(kN), nullptr, NoiseConfig{0.5, 0.0});
  // Funnel everyone onto nest 1: ants that know it go there, the rest
  // keep searching until they land on it (k = 2, so a few rounds suffice).
  std::vector<Action> search(kN, Action::search());
  const auto& found = e.step(search);
  std::vector<bool> knows1(kN, false);
  for (AntId a = 0; a < kN; ++a) knows1[a] = found[a].nest == 1;
  for (int round = 0; round < 64; ++round) {
    std::vector<Action> actions(kN);
    bool all = true;
    for (AntId a = 0; a < kN; ++a) {
      actions[a] = knows1[a] ? Action::go(1) : Action::search();
      all = all && knows1[a];
    }
    const auto& outcomes = e.step(actions);
    for (AntId a = 0; a < kN; ++a) {
      if (outcomes[a].kind == ActionKind::kSearch && outcomes[a].nest == 1) {
        knows1[a] = true;
      }
    }
    if (all) break;
  }
  // Now everyone can go(1); the true count is kN but perceptions vary.
  std::vector<Action> assess(kN, Action::go(1));
  const auto& outcomes = e.step(assess);
  double sum = 0.0;
  bool any_differs = false;
  for (AntId a = 0; a < kN; ++a) {
    EXPECT_EQ(outcomes[a].kind, ActionKind::kGo);
    sum += outcomes[a].count;
    any_differs = any_differs || outcomes[a].count != kN;
    EXPECT_GE(outcomes[a].count, kN / 2);      // bounded below by (1-sigma)
    EXPECT_LE(outcomes[a].count, kN + kN / 2); // and above by (1+sigma)
  }
  EXPECT_TRUE(any_differs) << "noise had no effect";
  EXPECT_NEAR(sum / kN, kN, 10.0);  // unbiased within sampling error
}

TEST(NoiseIntegration, QualityFlipsReachSearchOutcomes) {
  constexpr std::uint32_t kN = 2000;
  auto cfg = base_config(kN);
  cfg.qualities = {1.0};  // k = 1: every search sees the same good nest
  Environment e(std::move(cfg), nullptr, NoiseConfig{0.0, 0.2});
  std::vector<Action> search(kN, Action::search());
  const auto& outcomes = e.step(search);
  int flipped = 0;
  for (AntId a = 0; a < kN; ++a) {
    flipped += outcomes[a].quality == 0.0 ? 1 : 0;
  }
  EXPECT_NEAR(flipped / static_cast<double>(kN), 0.2, 0.03);
}

TEST(NoiseIntegration, RecruitHomeCountDistorted) {
  constexpr std::uint32_t kN = 64;
  Environment e(base_config(kN), nullptr, NoiseConfig{0.4, 0.0});
  std::vector<Action> wait(kN, Action::recruit(false, kHomeNest));
  const auto& outcomes = e.step(wait);
  bool any_differs = false;
  for (AntId a = 0; a < kN; ++a) {
    any_differs = any_differs || outcomes[a].count != kN;
  }
  EXPECT_TRUE(any_differs);
}

TEST(NoiseIntegration, ExactModelNeverDistorts) {
  constexpr std::uint32_t kN = 64;
  Environment e(base_config(kN));  // default: exact observation
  std::vector<Action> wait(kN, Action::recruit(false, kHomeNest));
  const auto& outcomes = e.step(wait);
  for (AntId a = 0; a < kN; ++a) EXPECT_EQ(outcomes[a].count, kN);
}

TEST(NoiseIntegration, PairingModelAccessorReportsConfiguredModel) {
  Environment def(base_config(4));
  EXPECT_EQ(def.pairing_model().name(), "permutation");
  Environment alt(base_config(4),
                  make_pairing_model(PairingKind::kUniformProposal));
  EXPECT_EQ(alt.pairing_model().name(), "uniform-proposal");
}

}  // namespace
}  // namespace hh::env
