// Tests of the recruitment pairing process (paper Algorithm 1) and the
// alternative model used for the E15 ablation.
#include "env/pairing.hpp"

#include <cmath>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace hh::env {
namespace {

/// The active flags of `active` active recruit() calls followed by
/// `passive` passive ones, in request order.
std::vector<std::uint8_t> make_flags(std::size_t active, std::size_t passive) {
  std::vector<std::uint8_t> flags(active + passive, 0);
  for (std::size_t i = 0; i < active; ++i) flags[i] = 1;
  return flags;
}

/// One unkeyed ad-hoc matching over `flags`, in a fresh scratch.
PairingScratch pair(const PairingModel& model,
                    std::span<const std::uint8_t> flags, util::Rng& rng) {
  PairingScratch scratch;
  model.pair_active(flags, rng, scratch);
  return scratch;
}

// Checks that the result is a valid matching per the model:
//  * vectors sized to the request count;
//  * an ant recruited at most once and recruiting at most once;
//  * only active ants appear as recruiters;
//  * an ant is never simultaneously recruiter in one pair and recruited in
//    another (self-pairs are the single allowed overlap).
void expect_valid_matching(const std::vector<std::uint8_t>& flags,
                           const PairingScratch& result) {
  ASSERT_EQ(result.recruited_by.size(), flags.size());
  ASSERT_EQ(result.recruit_succeeded.size(), flags.size());
  std::vector<int> times_recruiter(flags.size(), 0);
  for (std::size_t x = 0; x < flags.size(); ++x) {
    const std::int32_t by = result.recruited_by[x];
    if (by != kNotRecruited) {
      ASSERT_GE(by, 0);
      ASSERT_LT(static_cast<std::size_t>(by), flags.size());
      EXPECT_TRUE(flags[static_cast<std::size_t>(by)])
          << "recruiter " << by << " is not active";
      EXPECT_TRUE(result.recruit_succeeded[static_cast<std::size_t>(by)]);
      ++times_recruiter[static_cast<std::size_t>(by)];
    }
  }
  for (std::size_t x = 0; x < flags.size(); ++x) {
    EXPECT_LE(times_recruiter[x], 1) << "ant recruited twice";
    if (result.recruit_succeeded[x]) {
      EXPECT_EQ(times_recruiter[x], 1)
          << "successful recruiter with no recruited partner";
      // Recruiter-and-recruited overlap only allowed as a self-pair.
      if (result.recruited_by[x] != kNotRecruited) {
        EXPECT_EQ(result.recruited_by[x], static_cast<std::int32_t>(x));
      }
    }
  }
}

class PairingModelTest : public ::testing::TestWithParam<PairingKind> {};

TEST_P(PairingModelTest, EmptyRequestSet) {
  util::Rng rng(1);
  const auto model = make_pairing_model(GetParam());
  const auto result = pair(*model, {}, rng);
  EXPECT_TRUE(result.recruited_by.empty());
  EXPECT_EQ(result.pair_count(), 0u);
}

TEST_P(PairingModelTest, AllPassiveNobodyPaired) {
  util::Rng rng(2);
  const auto model = make_pairing_model(GetParam());
  const auto flags = make_flags(0, 10);
  const auto result = pair(*model, flags, rng);
  expect_valid_matching(flags, result);
  EXPECT_EQ(result.pair_count(), 0u);
}

TEST_P(PairingModelTest, MatchingInvariantsHoldOverManyRandomRounds) {
  util::Rng rng(3);
  util::Rng shape(4);
  const auto model = make_pairing_model(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const auto active = static_cast<std::size_t>(shape.uniform_u64(20));
    const auto passive = static_cast<std::size_t>(shape.uniform_u64(20));
    if (active + passive == 0) continue;
    const auto flags = make_flags(active, passive);
    const auto result = pair(*model, flags, rng);
    expect_valid_matching(flags, result);
    EXPECT_LE(result.pair_count(), active);
    EXPECT_LE(result.pair_count(), flags.size());
  }
}

TEST_P(PairingModelTest, DeterministicGivenRngState) {
  const auto model = make_pairing_model(GetParam());
  const auto flags = make_flags(8, 8);
  util::Rng rng1(99);
  util::Rng rng2(99);
  const auto r1 = pair(*model, flags, rng1);
  const auto r2 = pair(*model, flags, rng2);
  EXPECT_EQ(r1.recruited_by, r2.recruited_by);
  EXPECT_EQ(r1.recruit_succeeded, r2.recruit_succeeded);
}

TEST_P(PairingModelTest, LoneActiveAntSelfRecruits) {
  // Lemma 3.1: "if c(0,r) < 2, ant a is forced to recruit itself".
  util::Rng rng(5);
  const auto model = make_pairing_model(GetParam());
  const auto flags = make_flags(1, 0);
  int self_pairs = 0;
  for (int t = 0; t < 50; ++t) {
    const auto result = pair(*model, flags, rng);
    expect_valid_matching(flags, result);
    if (result.recruited_by[0] == 0) ++self_pairs;
  }
  // With only one ant in R the uniform draw always picks it.
  EXPECT_EQ(self_pairs, 50);
}

TEST_P(PairingModelTest, ActiveAntsRecruitPassivePoolEffectively) {
  // With many actives and many passives, a decent fraction of actives
  // should succeed each round (Lemma 2.1 promises >= 1/16 each).
  util::Rng rng(6);
  const auto model = make_pairing_model(GetParam());
  const auto flags = make_flags(50, 50);
  std::size_t pairs = 0;
  constexpr int kRounds = 200;
  for (int t = 0; t < kRounds; ++t) pairs += pair(*model, flags, rng).pair_count();
  const double per_active =
      static_cast<double>(pairs) / (50.0 * kRounds);
  EXPECT_GE(per_active, 1.0 / 16.0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, PairingModelTest,
                         ::testing::Values(PairingKind::kPermutation,
                                           PairingKind::kUniformProposal,
                                           PairingKind::kCounter),
                         [](const auto& info) {
                           switch (info.param) {
                             case PairingKind::kPermutation:
                               return "Permutation";
                             case PairingKind::kUniformProposal:
                               return "UniformProposal";
                             case PairingKind::kCounter:
                               return "CounterLottery";
                           }
                           return "Unknown";
                         });

TEST_P(PairingModelTest, PairCountDistributionMatchesAnalyticAtMTwo) {
  // Analytic fact shared by ALL THREE models at m = 2, both active: the
  // matching has 2 pairs (both self-pairs) with probability exactly 1/4
  // and 1 pair otherwise.
  //  * permutation: first ant in P self-draws w.p. 1/2; only then can the
  //    second self-draw (w.p. 1/2) — otherwise somebody is already used;
  //  * uniform-proposal and counter-lottery: two pairs iff both ants
  //    propose to themselves (w.p. 1/4); every other proposal profile
  //    collapses to one accepted pair.
  // A biased lottery (e.g. a ticket comparison that favors low slots, or
  // a non-uniform target draw) shifts this mass — which bit-identity pins
  // can never catch for a NEW model.
  const auto model = make_pairing_model(GetParam());
  const auto flags = make_flags(2, 0);
  util::Rng rng(0xC0DE);
  constexpr int kTrials = 40000;
  int two_pairs = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto result = pair(*model, flags, rng);
    const auto pairs = result.pair_count();
    ASSERT_GE(pairs, 1u);
    ASSERT_LE(pairs, 2u);
    two_pairs += pairs == 2 ? 1 : 0;
  }
  // Chi-square with 1 dof against Binomial(kTrials, 1/4); 3.84 = 95th
  // percentile, but use the 99.99th (15.1) so the suite stays stable
  // across seeds while still catching any real bias (a 1% shift in p
  // scores ~21 on this sample size).
  const double expected2 = kTrials / 4.0;
  const double expected1 = kTrials - expected2;
  const double d2 = two_pairs - expected2;
  const double chi2 = d2 * d2 / expected2 + d2 * d2 / expected1;
  EXPECT_LT(chi2, 15.1) << "two_pairs=" << two_pairs << "/" << kTrials;
}

TEST_P(PairingModelTest, SingleRecruiterTargetIsUniformChiSquare) {
  // One active recruiter among m ants: in every model the recruited ant
  // is the recruiter's uniform draw over ALL of R, so each of the m ants
  // (self included) is hit w.p. 1/m. Chi-square over the m buckets.
  const auto model = make_pairing_model(GetParam());
  constexpr std::size_t kM = 8;
  const auto flags = make_flags(1, kM - 1);
  util::Rng rng(0xFACE);
  constexpr int kTrials = 80000;
  std::vector<int> hits(kM, 0);
  for (int t = 0; t < kTrials; ++t) {
    const auto result = pair(*model, flags, rng);
    ASSERT_EQ(result.pair_count(), 1u);  // lone recruiter always succeeds
    for (std::size_t x = 0; x < kM; ++x) {
      if (result.recruited_by[x] != kNotRecruited) ++hits[x];
    }
  }
  const double expected = static_cast<double>(kTrials) / kM;
  double chi2 = 0.0;
  for (std::size_t x = 0; x < kM; ++x) {
    const double d = hits[x] - expected;
    chi2 += d * d / expected;
  }
  // 7 dof: 99.99th percentile ~ 29.9.
  EXPECT_LT(chi2, 29.9);
}

TEST_P(PairingModelTest, MatchingValidAcrossEveryEntryPoint) {
  // The validity invariants (each ant <= 1 pair, only active ants
  // recruit) must hold identically through both forms of pair_active():
  // the unkeyed Rng form and the keyed PairingCtx form the environment
  // uses — over one scratch reused across calls, as the environment
  // reuses it.
  const auto model = make_pairing_model(GetParam());
  util::Rng rng(0xBEEF);
  util::Rng shape(0xF00D);
  PairingScratch scratch;
  scratch.reserve(64);
  for (int trial = 0; trial < 100; ++trial) {
    const auto active = static_cast<std::size_t>(shape.uniform_u64(32));
    const auto passive = static_cast<std::size_t>(shape.uniform_u64(32));
    if (active + passive == 0) continue;
    const auto flags = make_flags(active, passive);

    model->pair_active(flags, rng, scratch);
    expect_valid_matching(flags, scratch);

    // Keyed SoA call — the engine path (counter models draw nothing from
    // the rng here; sequential models must behave exactly as before).
    model->pair_active(flags,
                       PairingCtx{rng, 0x5EED, 1 + static_cast<std::uint32_t>(trial)},
                       scratch);
    expect_valid_matching(flags, scratch);
  }
}

TEST(CounterLotteryPairing, KeyedCallsDrawNothingFromSharedStream) {
  // The property the packed fusion rests on: a keyed counter pairing
  // leaves the environment stream untouched, so search landings and
  // noise draws are unaffected by how many ants recruit.
  CounterLotteryPairing model;
  std::vector<std::uint8_t> active(64, 1);
  PairingScratch scratch;
  util::Rng rng(42);
  util::Rng untouched(42);
  model.pair_active(active, PairingCtx{rng, 7, 3}, scratch);
  EXPECT_EQ(rng(), untouched());
}

TEST(CounterLotteryPairing, KeyedMatchingDependsOnlyOnSeedRoundAndFlags) {
  // Same (seed, round, active flags) => same matching, regardless of the
  // shared rng's state; different round or seed => (almost surely)
  // different matching.
  CounterLotteryPairing model;
  std::vector<std::uint8_t> active(32, 1);
  PairingScratch s1, s2;
  util::Rng rng_a(1);
  util::Rng rng_b(999);
  model.pair_active(active, PairingCtx{rng_a, 5, 2}, s1);
  model.pair_active(active, PairingCtx{rng_b, 5, 2}, s2);
  EXPECT_EQ(s1.recruited_by, s2.recruited_by);

  model.pair_active(active, PairingCtx{rng_a, 5, 3}, s2);
  EXPECT_NE(s1.recruited_by, s2.recruited_by);
  model.pair_active(active, PairingCtx{rng_a, 6, 2}, s2);
  EXPECT_NE(s1.recruited_by, s2.recruited_by);
}

TEST(PermutationPairing, Lemma21SuccessProbabilityAtLeastOneSixteenth) {
  // Lemma 2.1: an active recruiter succeeds with probability >= 1/16
  // whenever c(0, r) >= 2 — checked empirically across home-nest mixes.
  PermutationPairing model;
  util::Rng rng(7);
  for (const auto& [active, passive] : std::vector<std::pair<int, int>>{
           {2, 0}, {4, 0}, {16, 0}, {64, 0}, {2, 14}, {8, 8}, {32, 96}}) {
    const auto flags = make_flags(active, passive);
    constexpr int kRounds = 4000;
    std::int64_t successes = 0;
    for (int t = 0; t < kRounds; ++t) {
      const auto result = pair(model, flags, rng);
      for (int a = 0; a < active; ++a) successes += result.recruit_succeeded[a];
    }
    const double p_hat =
        static_cast<double>(successes) / (static_cast<double>(active) * kRounds);
    EXPECT_GE(p_hat, 1.0 / 16.0)
        << "active=" << active << " passive=" << passive;
  }
}

TEST(PermutationPairing, TwoActiveAntsPairingIsSymmetric) {
  // With R = {a, b} both active, by symmetry each should succeed equally
  // often.
  PermutationPairing model;
  util::Rng rng(8);
  const auto flags = make_flags(2, 0);
  int wins_a = 0;
  int wins_b = 0;
  constexpr int kRounds = 20000;
  for (int t = 0; t < kRounds; ++t) {
    const auto result = pair(model, flags, rng);
    wins_a += result.recruit_succeeded[0];
    wins_b += result.recruit_succeeded[1];
  }
  EXPECT_NEAR(wins_a, wins_b, 4 * std::sqrt(static_cast<double>(kRounds)));
}

TEST(PermutationPairing, RecruitedAntsAreChosenUniformlyAmongEligible) {
  // One active recruiter and m-1 passive ants: each of the m ants
  // (including the recruiter itself) is the uniform draw, so each passive
  // ant should be recruited with probability ~1/m.
  PermutationPairing model;
  util::Rng rng(9);
  constexpr std::size_t kM = 8;
  const auto flags = make_flags(1, kM - 1);
  std::vector<int> recruited(kM, 0);
  constexpr int kRounds = 80000;
  for (int t = 0; t < kRounds; ++t) {
    const auto result = pair(model, flags, rng);
    for (std::size_t x = 0; x < kM; ++x) {
      if (result.recruited_by[x] != kNotRecruited) ++recruited[x];
    }
  }
  const double expected = static_cast<double>(kRounds) / kM;
  for (std::size_t x = 0; x < kM; ++x) {
    EXPECT_NEAR(recruited[x], expected, 5 * std::sqrt(expected)) << "ant " << x;
  }
}

TEST(UniformProposalPairing, NameAndFactory) {
  const auto perm = make_pairing_model(PairingKind::kPermutation);
  const auto prop = make_pairing_model(PairingKind::kUniformProposal);
  const auto ctr = make_pairing_model(PairingKind::kCounter);
  EXPECT_EQ(perm->name(), "permutation");
  EXPECT_EQ(prop->name(), "uniform-proposal");
  EXPECT_EQ(ctr->name(), "counter-lottery");
}

TEST(PairingVocabulary, NamesRoundTripThroughKindCodec) {
  for (const PairingKind kind :
       {PairingKind::kPermutation, PairingKind::kUniformProposal,
        PairingKind::kCounter}) {
    const auto name = pairing_name(kind);
    EXPECT_EQ(make_pairing_model(kind)->name(), name);
    const auto parsed = pairing_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(pairing_from_name("counter").has_value());
  EXPECT_FALSE(pairing_from_name("").has_value());
}

}  // namespace
}  // namespace hh::env
