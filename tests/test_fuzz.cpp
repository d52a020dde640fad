// Engine fuzzing: long random (but legal) action sequences against the
// environment, with every model invariant checked after every round.
// This is the deepest defense against bookkeeping bugs in the
// location/count/knowledge machinery.
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "env/environment.hpp"
#include "util/rng.hpp"

namespace hh::env {
namespace {

struct FuzzWorld {
  std::uint32_t n;
  std::uint32_t k;
  Environment environment;
  // Client-side mirror of what each ant may legally target.
  std::vector<std::vector<NestId>> known;

  FuzzWorld(std::uint32_t n_, std::uint32_t k_, std::uint64_t seed,
            PairingKind pairing)
      : n(n_),
        k(k_),
        environment(make_config(n_, k_, seed), make_pairing_model(pairing)),
        known(n_) {}

  static EnvironmentConfig make_config(std::uint32_t n, std::uint32_t k,
                                       std::uint64_t seed) {
    EnvironmentConfig cfg;
    cfg.num_ants = n;
    cfg.qualities.resize(k);
    util::Rng q(seed ^ 0x9);
    for (auto& v : cfg.qualities) v = q.bernoulli(0.5) ? 1.0 : 0.0;
    cfg.seed = seed;
    return cfg;
  }

  void learn(AntId a, NestId nest) {
    for (NestId have : known[a]) {
      if (have == nest) return;
    }
    known[a].push_back(nest);
  }
};

class FuzzTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, PairingKind>> {
};

TEST_P(FuzzTest, RandomLegalWalksPreserveAllInvariants) {
  const auto& [seed, pairing] = GetParam();
  util::Rng rng(seed);
  const auto n = static_cast<std::uint32_t>(2 + rng.uniform_u64(99));
  const auto k = static_cast<std::uint32_t>(1 + rng.uniform_u64(8));
  FuzzWorld world(n, k, seed * 77 + 5, pairing);

  std::vector<Action> actions(n);
  for (int round = 1; round <= 150; ++round) {
    // Choose a random legal action per ant.
    for (AntId a = 0; a < n; ++a) {
      const auto& known = world.known[a];
      const std::uint64_t dice = rng.uniform_u64(10);
      if (known.empty() || dice < 3) {
        actions[a] = Action::search();
      } else if (dice < 6) {
        actions[a] =
            Action::go(known[rng.uniform_u64(known.size())]);
      } else if (dice < 8) {
        actions[a] = Action::recruit(
            true, known[rng.uniform_u64(known.size())]);
      } else {
        // Passive waiting; home target exercises the knows-nothing path.
        const bool use_home = rng.bernoulli(0.3);
        actions[a] = Action::recruit(
            false,
            use_home ? kHomeNest : known[rng.uniform_u64(known.size())]);
      }
    }

    const std::vector<Outcome>& outcomes = world.environment.step(actions);
    ASSERT_EQ(outcomes.size(), n);

    // Invariant 1: counts over all nests sum to n, and match locations.
    std::vector<std::uint32_t> tally(k + 1, 0);
    for (AntId a = 0; a < n; ++a) {
      const NestId loc = world.environment.location(a);
      ASSERT_LE(loc, k);
      ++tally[loc];
    }
    for (NestId i = 0; i <= k; ++i) {
      ASSERT_EQ(tally[i], world.environment.count(i))
          << "round " << round << " nest " << i;
    }

    // Invariant 2: every ant's location and outcome are consistent with
    // its action; knowledge grows exactly as the model says.
    const RoundStats& stats = world.environment.last_round_stats();
    std::uint32_t searches = 0;
    std::uint32_t gos = 0;
    std::uint32_t actives = 0;
    std::uint32_t passives = 0;
    std::uint32_t successes = 0;
    for (AntId a = 0; a < n; ++a) {
      const Action& action = actions[a];
      const Outcome& out = outcomes[a];
      ASSERT_EQ(out.kind, action.kind);
      switch (action.kind) {
        case ActionKind::kSearch:
          ++searches;
          ASSERT_GE(out.nest, 1u);
          ASSERT_LE(out.nest, k);
          ASSERT_EQ(world.environment.location(a), out.nest);
          ASSERT_EQ(out.count, world.environment.count(out.nest));
          world.learn(a, out.nest);
          break;
        case ActionKind::kGo:
          ++gos;
          ASSERT_EQ(out.nest, action.target);
          ASSERT_EQ(world.environment.location(a), action.target);
          break;
        case ActionKind::kRecruit:
          action.active ? ++actives : ++passives;
          ASSERT_EQ(world.environment.location(a), kHomeNest);
          ASSERT_EQ(out.count, world.environment.count(kHomeNest));
          if (out.recruited) {
            ++successes;
            if (out.nest != kHomeNest) world.learn(a, out.nest);
          } else {
            ASSERT_EQ(out.nest, action.target) << "unrecruited ant's return "
                                                  "value must echo its input";
          }
          if (out.recruit_succeeded) {
            ASSERT_TRUE(action.active) << "passive ant cannot recruit";
          }
          break;
        case ActionKind::kIdle:
          FAIL() << "fuzzer never emits idle";
      }
      // Knowledge mirror matches the environment's book-keeping.
      for (NestId nest : world.known[a]) {
        ASSERT_TRUE(world.environment.knows(a, nest));
      }
    }

    // Invariant 3: the stats tally the actions exactly.
    ASSERT_EQ(stats.searches, searches);
    ASSERT_EQ(stats.gos, gos);
    ASSERT_EQ(stats.active_recruits, actives);
    ASSERT_EQ(stats.passive_recruits, passives);
    ASSERT_EQ(stats.successful_recruitments, successes);
    ASSERT_LE(stats.self_recruitments, stats.successful_recruitments);
    ASSERT_EQ(stats.idles, 0u);
  }
  EXPECT_EQ(world.environment.round(), 150u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 13),
                       ::testing::Values(PairingKind::kPermutation,
                                         PairingKind::kUniformProposal)),
    [](const auto& info) {
      return std::string(std::get<1>(info.param) == PairingKind::kPermutation
                             ? "Perm"
                             : "Prop") +
             "_s" + std::to_string(std::get<0>(info.param));
    });

}  // namespace
}  // namespace hh::env
