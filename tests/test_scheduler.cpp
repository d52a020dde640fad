#include "env/scheduler.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/contracts.hpp"

namespace hh::env {
namespace {

/// True iff `s` consults `rng` in no round: every ant awake, no draw.
bool draw_free(const Scheduler& s) {
  util::Rng rng(1);
  const util::Rng before = rng;
  for (std::uint32_t r = 0; r < 100; ++r) {
    for (int a = 0; a < 5; ++a) {
      if (!s.awake(r, rng)) return false;
    }
  }
  util::Rng untouched = before;
  return rng() == untouched();
}

TEST(Scheduler, SynchronousIsAlwaysAwakeAndDrawsNothing) {
  EXPECT_TRUE(draw_free(Scheduler(0.0)));
  EXPECT_TRUE(draw_free(Scheduler(-0.1)));
  EXPECT_TRUE(draw_free(Scheduler(-1.0)));
}

TEST(Scheduler, NeverSkipsRoundZero) {
  const Scheduler s(0.9);
  util::Rng rng(2);
  for (int a = 0; a < 1000; ++a) EXPECT_TRUE(s.awake(0, rng));
}

TEST(Scheduler, SkipRateMatchesProbability) {
  const Scheduler s(0.3);
  util::Rng rng(3);
  constexpr int kSamples = 100000;
  int asleep = 0;
  for (int i = 0; i < kSamples; ++i) asleep += s.awake(5, rng) ? 0 : 1;
  EXPECT_NEAR(asleep / static_cast<double>(kSamples), 0.3, 0.01);
}

TEST(Scheduler, ZeroProbabilityNeverSkips) {
  const Scheduler s(0.0);
  util::Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(s.awake(3, rng));
}

TEST(Scheduler, PartialSynchronyDrawsAfterRoundZero) {
  EXPECT_FALSE(draw_free(Scheduler(0.2)));
}

TEST(Scheduler, RejectsInvalidProbability) {
  EXPECT_THROW(Scheduler(1.0), ContractViolation);
  EXPECT_THROW(Scheduler(1.5), ContractViolation);
  EXPECT_THROW(Scheduler(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
}

}  // namespace
}  // namespace hh::env
