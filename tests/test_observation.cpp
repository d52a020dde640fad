#include "env/observation.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace hh::env {
namespace {

TEST(ExactObservation, IsIdentity) {
  const Observation obs;
  util::Rng rng(1);
  for (std::uint32_t c : {0u, 1u, 17u, 100000u}) {
    EXPECT_EQ(obs.perceive_count(c, rng), c);
  }
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(obs.perceive_quality(q, rng), q);
  }
}

TEST(NoisyObservation, ZeroCountStaysZero) {
  const Observation obs(NoiseConfig{0.5, 0.0});
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(obs.perceive_count(0, rng), 0u);
}

TEST(NoisyObservation, CountNoiseIsBoundedBySigma) {
  const Observation obs(NoiseConfig{0.2, 0.0});
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t perceived = obs.perceive_count(100, rng);
    EXPECT_GE(perceived, 80u);
    EXPECT_LE(perceived, 120u);
  }
}

TEST(NoisyObservation, CountNoiseIsUnbiased) {
  // Section 6 requires *unbiased* estimators; the mean over many draws
  // must match the true count.
  const Observation obs(NoiseConfig{0.5, 0.0});
  util::Rng rng(4);
  constexpr int kDraws = 200000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) sum += obs.perceive_count(1000, rng);
  EXPECT_NEAR(sum / kDraws, 1000.0, 2.0);
}

TEST(NoisyObservation, ZeroSigmaCountIsExact) {
  const Observation obs(NoiseConfig{0.0, 0.5});
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(obs.perceive_count(73, rng), 73u);
}

TEST(NoisyObservation, BinaryQualityFlipsAtConfiguredRate) {
  const Observation obs(NoiseConfig{0.0, 0.25});
  util::Rng rng(6);
  constexpr int kDraws = 100000;
  int flipped_good = 0;
  int flipped_bad = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (obs.perceive_quality(1.0, rng) == 0.0) ++flipped_good;
    if (obs.perceive_quality(0.0, rng) == 1.0) ++flipped_bad;
  }
  EXPECT_NEAR(flipped_good / static_cast<double>(kDraws), 0.25, 0.01);
  EXPECT_NEAR(flipped_bad / static_cast<double>(kDraws), 0.25, 0.01);
}

TEST(NoisyObservation, ContinuousQualityNoiseClampedToUnitInterval) {
  const Observation obs(NoiseConfig{0.0, 0.0, 0.5});
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double q = obs.perceive_quality(0.9, rng);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
}

TEST(NoisyObservation, ConstructorContracts) {
  EXPECT_THROW(Observation(NoiseConfig{-0.1, 0.0}), ContractViolation);
  EXPECT_THROW(Observation(NoiseConfig{0.0, -0.1}), ContractViolation);
  EXPECT_THROW(Observation(NoiseConfig{0.0, 1.1}), ContractViolation);
  EXPECT_THROW(Observation(NoiseConfig{0.0, 0.0, -1.0}), ContractViolation);
}

TEST(NoiseConfig, AnyDetectsAnyNoiseSource) {
  EXPECT_FALSE(NoiseConfig{}.any());
  EXPECT_TRUE((NoiseConfig{0.1, 0.0, 0.0}).any());
  EXPECT_TRUE((NoiseConfig{0.0, 0.1, 0.0}).any());
  EXPECT_TRUE((NoiseConfig{0.0, 0.0, 0.1}).any());
}

TEST(Observation, ExactIffNoNoise) {
  EXPECT_TRUE(Observation(NoiseConfig{}).exact());
  EXPECT_FALSE(Observation(NoiseConfig{0.2, 0.0, 0.0}).exact());
}

}  // namespace
}  // namespace hh::env
