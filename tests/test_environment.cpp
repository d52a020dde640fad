// Tests of the Section 2 model semantics: locations l(a,r), end-of-round
// counts c(i,r), knowledge-gated go()/recruit() preconditions, and the
// per-round statistics.
#include "env/environment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_round.hpp"
#include "util/binary_io.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hh::env {
namespace {

EnvironmentConfig config(std::uint32_t n, std::vector<double> qualities,
                         std::uint64_t seed = 1) {
  EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = std::move(qualities);
  cfg.seed = seed;
  return cfg;
}

TEST(Environment, InitialStateAllAntsHome) {
  Environment e(config(10, {1.0, 0.0}));
  EXPECT_EQ(e.num_ants(), 10u);
  EXPECT_EQ(e.num_nests(), 2u);
  EXPECT_EQ(e.round(), 0u);
  EXPECT_EQ(e.count(kHomeNest), 10u);
  EXPECT_EQ(e.count(1), 0u);
  for (AntId a = 0; a < 10; ++a) EXPECT_EQ(e.location(a), kHomeNest);
}

TEST(Environment, QualityAccessorMatchesConfig) {
  Environment e(config(2, {1.0, 0.25, 0.0}));
  EXPECT_DOUBLE_EQ(e.quality(1), 1.0);
  EXPECT_DOUBLE_EQ(e.quality(2), 0.25);
  EXPECT_DOUBLE_EQ(e.quality(3), 0.0);
  EXPECT_THROW((void)e.quality(0), ContractViolation);
  EXPECT_THROW((void)e.quality(4), ContractViolation);
}

TEST(Environment, ConstructorContracts) {
  EXPECT_THROW(Environment(config(0, {1.0})), ContractViolation);
  EXPECT_THROW(Environment(config(2, {})), ContractViolation);
  EXPECT_THROW(Environment(config(2, {1.5})), ContractViolation);
  EXPECT_THROW(Environment(config(2, {-0.1})), ContractViolation);
}

TEST(Environment, SearchMovesAntsAndGrantsKnowledge) {
  Environment e(config(100, {1.0, 1.0, 1.0, 1.0}));
  std::vector<Action> actions(100, Action::search());
  const auto& outcomes = e.step(actions);
  std::uint32_t at_candidates = 0;
  for (AntId a = 0; a < 100; ++a) {
    const auto& out = outcomes[a];
    EXPECT_EQ(out.kind, ActionKind::kSearch);
    EXPECT_GE(out.nest, 1u);
    EXPECT_LE(out.nest, 4u);
    EXPECT_EQ(e.location(a), out.nest);
    EXPECT_TRUE(e.knows(a, out.nest));
    at_candidates += 1;
  }
  EXPECT_EQ(e.count(kHomeNest), 0u);
  std::uint32_t total = 0;
  for (NestId i = 1; i <= 4; ++i) total += e.count(i);
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(e.round(), 1u);
}

TEST(Environment, SearchIsRoughlyUniformOverNests) {
  Environment e(config(40000, {1.0, 1.0, 1.0, 1.0}, 7));
  std::vector<Action> actions(40000, Action::search());
  e.step(actions);
  for (NestId i = 1; i <= 4; ++i) {
    EXPECT_NEAR(e.count(i), 10000.0, 5 * std::sqrt(10000.0)) << "nest " << i;
  }
}

TEST(Environment, SearchReturnsEndOfRoundCountAndTrueQuality) {
  Environment e(config(50, {1.0}));  // k = 1: everyone lands on nest 1
  std::vector<Action> actions(50, Action::search());
  const auto& outcomes = e.step(actions);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.nest, 1u);
    EXPECT_EQ(out.count, 50u);  // counts taken after all moves
    EXPECT_DOUBLE_EQ(out.quality, 1.0);
  }
}

TEST(Environment, GoRequiresKnowledge) {
  Environment e(config(2, {1.0, 1.0}));
  std::vector<Action> actions{Action::go(1), Action::go(2)};
  EXPECT_THROW(e.step(actions), ModelViolation);
}

TEST(Environment, GoAfterSearchIsLegalAndReturnsCount) {
  Environment e(config(3, {1.0}));
  std::vector<Action> search(3, Action::search());
  e.step(search);  // all at nest 1, all know nest 1
  std::vector<Action> go(3, Action::go(1));
  const auto& outcomes = e.step(go);
  for (AntId a = 0; a < 3; ++a) {
    EXPECT_EQ(outcomes[a].kind, ActionKind::kGo);
    EXPECT_EQ(outcomes[a].nest, 1u);
    EXPECT_EQ(outcomes[a].count, 3u);
    EXPECT_EQ(e.location(a), 1u);
  }
}

TEST(Environment, GoTargetRangeValidated) {
  Environment e(config(1, {1.0, 1.0}));
  std::vector<Action> bad_home{Action::go(kHomeNest)};
  EXPECT_THROW(e.step(bad_home), ModelViolation);
  std::vector<Action> bad_range{Action::go(3)};
  EXPECT_THROW(e.step(bad_range), ModelViolation);
}

TEST(Environment, RecruitMovesCallerHome) {
  Environment e(config(4, {1.0}));
  std::vector<Action> search(4, Action::search());
  e.step(search);
  std::vector<Action> recruit(4, Action::recruit(false, 1));
  const auto& outcomes = e.step(recruit);
  for (AntId a = 0; a < 4; ++a) {
    EXPECT_EQ(e.location(a), kHomeNest);
    EXPECT_EQ(outcomes[a].count, 4u);  // c(0, r) after all moves
  }
  EXPECT_EQ(e.count(kHomeNest), 4u);
}

TEST(Environment, ActiveRecruitRequiresKnownCandidate) {
  Environment e(config(2, {1.0, 1.0}));
  std::vector<Action> search(2, Action::search());
  e.step(search);
  // Advertising the home nest is illegal for b = 1.
  std::vector<Action> bad{Action::recruit(true, kHomeNest),
                          Action::recruit(false, kHomeNest)};
  EXPECT_THROW(e.step(bad), ModelViolation);
}

TEST(Environment, PassiveRecruitWithHomeTargetIsLegal) {
  // An ant that knows no candidate nest may wait at home (DESIGN.md §2).
  Environment e(config(2, {1.0}));
  std::vector<Action> wait(2, Action::recruit(false, kHomeNest));
  const auto& outcomes = e.step(wait);
  for (const auto& out : outcomes) {
    EXPECT_EQ(out.kind, ActionKind::kRecruit);
    EXPECT_EQ(out.nest, kHomeNest);  // nobody recruited them
    EXPECT_FALSE(out.recruited);
  }
}

TEST(Environment, RecruitmentTeachesTheAdvertisedNest) {
  // Ant 0 searches and then recruits ant 1, which has never left home;
  // ant 1 must then be able to go() to the advertised nest.
  Environment e(config(2, {1.0}, 3));
  std::vector<Action> round1{Action::search(), Action::recruit(false, kHomeNest)};
  e.step(round1);
  bool taught = false;
  for (int tries = 0; tries < 64 && !taught; ++tries) {
    std::vector<Action> round{Action::recruit(true, 1),
                              Action::recruit(false, kHomeNest)};
    const auto& outcomes = e.step(round);
    if (outcomes[1].recruited) {
      EXPECT_EQ(outcomes[1].nest, 1u);
      EXPECT_TRUE(e.knows(1, 1));
      taught = true;
    }
  }
  ASSERT_TRUE(taught) << "recruitment never succeeded in 64 rounds";
  std::vector<Action> follow{Action::go(1), Action::go(1)};
  EXPECT_NO_THROW(e.step(follow));
}

TEST(Environment, IdleRejectedUnlessEnabled) {
  Environment strict(config(1, {1.0}));
  std::vector<Action> idle{Action::idle()};
  EXPECT_THROW(strict.step(idle), ModelViolation);

  auto cfg = config(1, {1.0});
  cfg.allow_idle = true;
  Environment lenient(std::move(cfg));
  EXPECT_NO_THROW(lenient.step(idle));
  EXPECT_EQ(lenient.location(0), kHomeNest);
}

TEST(Environment, IdleKeepsCurrentLocation) {
  auto cfg = config(1, {1.0});
  cfg.allow_idle = true;
  Environment e(std::move(cfg));
  std::vector<Action> search{Action::search()};
  e.step(search);
  const NestId where = e.location(0);
  std::vector<Action> idle{Action::idle()};
  e.step(idle);
  EXPECT_EQ(e.location(0), where);
  EXPECT_EQ(e.count(where), 1u);
}

TEST(Environment, EnforcementCanBeDisabled) {
  auto cfg = config(1, {1.0, 1.0});
  cfg.enforce_model = false;
  Environment e(std::move(cfg));
  std::vector<Action> go{Action::go(2)};  // unknown nest, but not enforced
  EXPECT_NO_THROW(e.step(go));
  EXPECT_EQ(e.location(0), 2u);
}

TEST(Environment, StepValidatesActionVectorSize) {
  Environment e(config(3, {1.0}));
  std::vector<Action> wrong(2, Action::search());
  EXPECT_THROW(e.step(wrong), ContractViolation);
}

TEST(Environment, CountsAlwaysSumToColonySize) {
  // Random legal walks: each ant targets only nests it knows.
  Environment e(config(64, {1.0, 0.0, 1.0}, 11));
  util::Rng rng(5);
  std::vector<Action> actions(64);
  std::vector<NestId> known(64, kHomeNest);  // last nest learned, 0 = none
  for (int round = 0; round < 30; ++round) {
    for (AntId a = 0; a < 64; ++a) {
      if (known[a] == kHomeNest || rng.bernoulli(0.3)) {
        actions[a] = Action::search();
      } else if (rng.bernoulli(0.5)) {
        actions[a] = Action::recruit(rng.bernoulli(0.5), known[a]);
      } else {
        actions[a] = Action::go(known[a]);
      }
    }
    const auto& outcomes = e.step(actions);
    for (AntId a = 0; a < 64; ++a) {
      if (outcomes[a].kind == ActionKind::kSearch ||
          (outcomes[a].kind == ActionKind::kRecruit &&
           outcomes[a].nest != kHomeNest)) {
        known[a] = outcomes[a].nest;
      }
    }
    std::uint32_t total = 0;
    for (NestId i = 0; i <= 3; ++i) total += e.count(i);
    ASSERT_EQ(total, 64u) << "round " << round;
  }
}

TEST(Environment, RoundStatsCountActions) {
  Environment e(config(6, {1.0}, 13));
  std::vector<Action> search(6, Action::search());
  e.step(search);
  EXPECT_EQ(e.last_round_stats().searches, 6u);
  std::vector<Action> mixed{Action::recruit(true, 1),  Action::recruit(true, 1),
                            Action::recruit(false, 1), Action::recruit(false, 1),
                            Action::go(1),             Action::search()};
  e.step(mixed);
  const RoundStats& stats = e.last_round_stats();
  EXPECT_EQ(stats.active_recruits, 2u);
  EXPECT_EQ(stats.passive_recruits, 2u);
  EXPECT_EQ(stats.gos, 1u);
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_LE(stats.successful_recruitments, 2u);
}

TEST(Environment, CrossNestRecruitmentTracked) {
  // Two ants committed to different nests recruiting each other must
  // produce cross-nest recruitments when pairing succeeds.
  auto cfg = config(2, {1.0, 1.0});
  cfg.enforce_model = false;  // let us place ants directly
  Environment e(std::move(cfg));
  std::vector<Action> place{Action::go(1), Action::go(2)};
  e.step(place);
  std::uint32_t cross = 0;
  for (int t = 0; t < 50; ++t) {
    std::vector<Action> duel{Action::recruit(true, 1), Action::recruit(true, 2)};
    e.step(duel);
    cross += e.last_round_stats().cross_nest_recruitments;
  }
  EXPECT_GT(cross, 0u);
}

TEST(Environment, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Environment e(config(32, {1.0, 0.0, 1.0}, seed));
    std::vector<Action> search(32, Action::search());
    e.step(search);
    std::vector<NestId> locations;
    for (AntId a = 0; a < 32; ++a) locations.push_back(e.location(a));
    return locations;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// step() and the masked SoA entry points (step_masked_recruit_quiet and
// step_masked_go_quiet) against the literal four-phase round of
// tests/reference_round.hpp, every round: step()'s Outcomes, the masked
// lanes, the matching views and the full state must be what the reference
// world returns for the same calls — every packed round rests on this, from
// colony-uniform rounds (a constant op lane) to Algorithm 2's mixed block
// rounds with fault lanes. Run under every pairing model and under both
// observation models: a noisy round ends with the perception pass, whose
// lanes must hold exactly what the reference's Outcomes return.
class EnvironmentPairing : public ::testing::TestWithParam<PairingKind> {};

TEST_P(EnvironmentPairing, MaskedEntryPointsMatchGenericStep) {
  constexpr std::uint32_t n = 64;
  const std::vector<double> qualities = {1.0, 1.0, 0.0, 0.0};
  auto cfg = config(n, qualities, 91);
  cfg.allow_idle = true;  // masked rounds carry crashed (idle) ants
  test::ReferenceWorld reference(cfg, make_pairing_model(GetParam()));
  Environment generic(cfg, make_pairing_model(GetParam()));
  Environment quiet(cfg, make_pairing_model(GetParam()));
  // The noisy worlds run the same calls. Their perception draws shift the
  // shared stream, so after round 1 their ants know other nests than the
  // exact worlds', which choose the calls: they skip the model checks.
  auto noisy_cfg = cfg;
  noisy_cfg.enforce_model = false;
  const NoiseConfig noise{0.3, 0.1, 0.05};
  test::ReferenceWorld noisy_reference(noisy_cfg,
                                       make_pairing_model(GetParam()), noise);
  Environment noisy_generic(noisy_cfg, make_pairing_model(GetParam()), noise);
  Environment noisy_quiet(noisy_cfg, make_pairing_model(GetParam()), noise);
  ASSERT_TRUE(quiet.perceived_counts().empty());
  ASSERT_EQ(noisy_quiet.perceived_counts().size(), n);

  const auto expect_same_state = [&](const test::ReferenceWorld& want,
                                     const Environment& got,
                                     const std::string& label) {
    for (NestId i = 0; i <= want.num_nests(); ++i) {
      EXPECT_EQ(want.count(i), got.count(i)) << label << " nest " << i;
    }
    for (AntId a = 0; a < n; ++a) {
      EXPECT_EQ(want.location(a), got.location(a)) << label << " ant " << a;
      for (NestId i = 0; i <= want.num_nests(); ++i) {
        EXPECT_EQ(want.knows(a, i), got.knows(a, i)) << label;
      }
      EXPECT_EQ(want.recruited_by_ant(a), got.recruited_by_ant(a))
          << label << " ant " << a;
      EXPECT_EQ(want.recruit_succeeded_ant(a), got.recruit_succeeded_ant(a))
          << label << " ant " << a;
    }
    const RoundStats& w = want.last_round_stats();
    const RoundStats& g = got.last_round_stats();
    EXPECT_EQ(w.searches, g.searches) << label;
    EXPECT_EQ(w.gos, g.gos) << label;
    EXPECT_EQ(w.active_recruits, g.active_recruits) << label;
    EXPECT_EQ(w.passive_recruits, g.passive_recruits) << label;
    EXPECT_EQ(w.idles, g.idles) << label;
    EXPECT_EQ(w.successful_recruitments, g.successful_recruitments) << label;
    EXPECT_EQ(w.self_recruitments, g.self_recruitments) << label;
    EXPECT_EQ(w.cross_nest_recruitments, g.cross_nest_recruitments) << label;
    EXPECT_EQ(want.round(), got.round()) << label;
  };

  // What the ant-indexed matching views promise before the first round,
  // after a round without recruit calls, and after reset(): an empty
  // matching — never the pairs of an older round.
  const auto expect_empty_matching = [&](const std::string& label) {
    for (const Environment* e :
         {&generic, &quiet, &noisy_generic, &noisy_quiet}) {
      for (AntId a = 0; a < n; ++a) {
        EXPECT_EQ(e->recruited_by_ant(a), kNotRecruited)
            << label << " ant " << a;
        EXPECT_FALSE(e->recruit_succeeded_ant(a)) << label << " ant " << a;
      }
    }
    for (const Environment* e :
         {&generic, &quiet, &noisy_generic, &noisy_quiet}) {
      EXPECT_TRUE(e->successful_recruiters().empty()) << label;
    }
  };

  std::vector<Action> actions(n);
  std::vector<MaskedOp> op(n);
  std::vector<std::uint8_t> active(n, 0);
  std::vector<NestId> targets(n, kHomeNest);
  // Perceived values that differ from the true ones: the noisy worlds must
  // actually be noisy for their checks to mean anything.
  std::uint32_t perturbed = 0;

  // step()'s Outcomes against the reference's, field by field.
  const auto expect_same_outcomes = [&](const std::vector<Outcome>& want_out,
                                        const std::vector<Outcome>& got_out,
                                        const std::string& label) {
    for (AntId a = 0; a < n; ++a) {
      const Outcome& w = want_out[a];
      const Outcome& g = got_out[a];
      const std::string where = label + " ant " + std::to_string(a);
      EXPECT_EQ(w.kind, g.kind) << where;
      EXPECT_EQ(w.nest, g.nest) << where;
      EXPECT_EQ(w.quality, g.quality) << where;
      EXPECT_EQ(w.count, g.count) << where;
      EXPECT_EQ(w.recruited, g.recruited) << where;
      EXPECT_EQ(w.recruit_succeeded, g.recruit_succeeded) << where;
    }
  };

  // Every call's return against the masked environment, read the way the
  // packs read it: the ant's location for a search or go (an idle ant's
  // Outcome reports it too), recruit_results() for a recruit; the count
  // and quality of the nest the ant stands in (home, for a recruit's
  // count) — the true values under exact observation, the perception
  // lanes under noise. Then the matching views against the Outcomes, the
  // successful-recruiter list, and the full state.
  const auto expect_match = [&](const std::vector<Outcome>& want_out,
                                const test::ReferenceWorld& want,
                                const Environment& got,
                                const std::string& label) {
    const bool noisy = !got.perceived_counts().empty();
    std::vector<AntId> recruiters;  // in request (= ant) order
    for (AntId a = 0; a < n; ++a) {
      const Outcome& out = want_out[a];
      const NestId at = got.location(a);
      const std::string where = label + " ant " + std::to_string(a);
      if (op[a] == MaskedOp::kRecruit) {
        EXPECT_EQ(out.nest, got.recruit_results()[a]) << where;
        EXPECT_EQ(out.count, noisy ? got.perceived_counts()[a]
                                   : got.count(kHomeNest))
            << where;
      } else {
        EXPECT_EQ(out.nest, at) << where;
      }
      if (op[a] == MaskedOp::kSearch || op[a] == MaskedOp::kGo) {
        EXPECT_EQ(out.count, noisy ? got.perceived_counts()[a] : got.count(at))
            << where;
        EXPECT_EQ(out.quality,
                  noisy ? got.perceived_qualities()[a] : got.quality(at))
            << where;
        perturbed += noisy && (out.count != got.count(at) ||
                               out.quality != got.quality(at))
                         ? 1u
                         : 0u;
      }
      EXPECT_EQ(out.recruited, got.recruited_by_ant(a) != kNotRecruited)
          << where;
      EXPECT_EQ(out.recruit_succeeded, got.recruit_succeeded_ant(a)) << where;
      if (out.recruited) {
        const std::int32_t recruiter = got.recruited_by_ant(a);
        ASSERT_GE(recruiter, 0) << where;
        EXPECT_EQ(out.nest, targets[static_cast<std::size_t>(recruiter)])
            << where;
        recruiters.push_back(static_cast<AntId>(recruiter));
      }
    }
    const std::span<const AntId> listed = got.successful_recruiters();
    EXPECT_EQ(std::vector<AntId>(listed.begin(), listed.end()), recruiters)
        << label;
    expect_same_state(want, got, label);
  };

  // One round on a reference world and its two backends: step() and the
  // masked entry point (with or without the recruit lane) against the
  // reference. step() runs the masked round, so its world's lanes hold
  // the round's return values too.
  const auto round_on = [&](test::ReferenceWorld& ref, Environment& gen,
                            Environment& masked, bool recruit_lane,
                            const std::string& label) {
    const std::vector<Outcome> want_out = ref.step(actions);
    expect_same_outcomes(want_out, gen.step(actions), label + " step()");
    expect_match(want_out, ref, gen, label + " step()");
    if (recruit_lane) {
      masked.step_masked_recruit_quiet(op, active, targets);
    } else {
      masked.step_masked_go_quiet(op, targets);
    }
    expect_match(want_out, ref, masked, label + " masked");
  };

  // A recruit-free round through step_masked_go_quiet, exact and noisy.
  const auto go_round = [&](const std::string& label) {
    round_on(reference, generic, quiet, false, label + " (exact)");
    round_on(noisy_reference, noisy_generic, noisy_quiet, false,
             label + " (noisy)");
  };

  // A round that may carry recruit calls through
  // step_masked_recruit_quiet, exact and noisy.
  const auto recruit_round = [&](const std::string& label) {
    round_on(reference, generic, quiet, true, label + " (exact)");
    round_on(noisy_reference, noisy_generic, noisy_quiet, true,
             label + " (noisy)");
  };

  expect_empty_matching("before round 1");

  // Rounds 1-3: the colony-uniform rounds of the Algorithm-3 family as
  // constant op lanes. Round 1: every ant searches (the recruit-free
  // entry point).
  for (AntId a = 0; a < n; ++a) {
    actions[a] = Action::search();
    op[a] = MaskedOp::kSearch;
  }
  go_round("all-search round 1");
  expect_empty_matching("after all-search round 1");

  // Round 2: every ant recruits, advertising the nest it found; every
  // other ant actively.
  for (AntId a = 0; a < n; ++a) {
    const bool b = a % 2 == 0;
    actions[a] = Action::recruit(b, reference.location(a));
    op[a] = MaskedOp::kRecruit;
    active[a] = b ? 1 : 0;
    targets[a] = reference.location(a);
  }
  recruit_round("all-recruit round 2");

  // Round 3: every ant goes to the nest it holds after the recruit round
  // (its own, or its recruiter's), through the recruit-capable entry
  // point the packed engine uses for every round. A recruit-free round
  // right after a recruit round must leave an empty matching behind.
  for (AntId a = 0; a < n; ++a) {
    targets[a] = quiet.recruit_results()[a];
    actions[a] = Action::go(targets[a]);
    op[a] = MaskedOp::kGo;
  }
  recruit_round("all-go round 3");
  expect_empty_matching("after all-go round 3");

  // Round 4: the full mix — recruiters (active and passive), goers,
  // searchers, and idlers in one round, as an Algorithm-2 block round
  // with fault lanes would produce.
  for (AntId a = 0; a < n; ++a) {
    const NestId known = reference.location(a);
    switch (a % 4) {
      case 0:
        actions[a] = Action::idle();
        op[a] = MaskedOp::kIdle;
        break;
      case 1:
        actions[a] = Action::recruit(a % 8 == 1, known);
        op[a] = MaskedOp::kRecruit;
        active[a] = a % 8 == 1 ? 1 : 0;
        targets[a] = known;
        break;
      case 2:
        actions[a] = Action::go(known);
        op[a] = MaskedOp::kGo;
        targets[a] = known;
        break;
      default:
        actions[a] = Action::search();
        op[a] = MaskedOp::kSearch;
        break;
    }
  }
  recruit_round("mixed round 4");

  // Round 5: a recruit-free mix — goers, searchers, and idlers (a crashed
  // colony slice) — through step_masked_go_quiet, again right after a
  // recruit round. Ants go to a nest they know (the one they found in
  // round 1).
  for (AntId a = 0; a < n; ++a) {
    if (a % 7 == 0) {
      actions[a] = Action::idle();
      op[a] = MaskedOp::kIdle;
    } else if (a % 3 == 0) {
      actions[a] = Action::search();
      op[a] = MaskedOp::kSearch;
    } else {
      targets[a] = reference.knows(a, 1) ? 1 : reference.knows(a, 2) ? 2
                   : reference.knows(a, 3) ? 3 : 4;
      actions[a] = Action::go(targets[a]);
      op[a] = MaskedOp::kGo;
    }
  }
  go_round("masked go/search/idle round 5");
  expect_empty_matching("after masked go round 5");

  // Rounds 6-13: a steady-state-like mix, mostly recruits (nine in ten
  // active) and goes with a few searchers and idlers, redrawn each round
  // so the pairs, self-recruitments and cross-nest returns vary. Targets
  // are a nest the ant knows, kept legal by the exact worlds' checks.
  util::Rng mix(17);
  for (std::uint32_t round = 6; round <= 13; ++round) {
    for (AntId a = 0; a < n; ++a) {
      NestId known = kHomeNest;
      for (NestId i = 1; i <= reference.num_nests() && known == kHomeNest;
           ++i) {
        if (reference.knows(a, i) && mix.bernoulli(0.7)) known = i;
      }
      const double u = mix.uniform_double();
      if (u < 0.75) {
        const bool b = known != kHomeNest && mix.bernoulli(0.9);
        actions[a] = Action::recruit(b, known);
        op[a] = MaskedOp::kRecruit;
        active[a] = b ? 1 : 0;
        targets[a] = known;
      } else if (u < 0.92 && known != kHomeNest) {
        actions[a] = Action::go(known);
        op[a] = MaskedOp::kGo;
        targets[a] = known;
      } else if (u < 0.97) {
        actions[a] = Action::search();
        op[a] = MaskedOp::kSearch;
      } else {
        actions[a] = Action::idle();
        op[a] = MaskedOp::kIdle;
      }
    }
    recruit_round("round " + std::to_string(round));
  }
  EXPECT_EQ(generic.round(), 13u);

  EXPECT_GT(perturbed, 0u);

  // reset() right after a recruit round: round 0 again, with no matching
  // and the perception lanes of a fresh build; then a round against fresh
  // reference worlds with the new seed.
  generic.reset(5);
  quiet.reset(5);
  noisy_generic.reset(5);
  noisy_quiet.reset(5);
  expect_empty_matching("after reset");
  noisy_cfg.seed = 5;
  const Environment fresh(noisy_cfg, make_pairing_model(GetParam()), noise);
  EXPECT_TRUE(std::ranges::equal(noisy_quiet.perceived_counts(),
                                 fresh.perceived_counts()));
  EXPECT_TRUE(std::ranges::equal(noisy_quiet.perceived_qualities(),
                                 fresh.perceived_qualities()));
  cfg.seed = 5;
  test::ReferenceWorld reset_reference(cfg, make_pairing_model(GetParam()));
  test::ReferenceWorld reset_noisy_reference(
      noisy_cfg, make_pairing_model(GetParam()), noise);
  for (AntId a = 0; a < n; ++a) {
    actions[a] = Action::search();
    op[a] = MaskedOp::kSearch;
  }
  round_on(reset_reference, generic, quiet, false,
           "all-search round after reset (exact)");
  round_on(reset_noisy_reference, noisy_generic, noisy_quiet, false,
           "all-search round after reset (noisy)");
  EXPECT_EQ(quiet.round(), 1u);
}

// A ModelViolation is thrown at the same ant, with the same message, after
// the same draws. Round 3 places an illegal call after searchers and
// recruiters have been applied; the message and a digest of the three
// legal rounds after the caught throw (every Outcome, location, count,
// knowledge byte and stat) are pinned, and the reference world must agree
// with both. The pins were recorded on the four-phase row-at-a-time round.
template <typename World>
std::uint64_t digest_round(const World& world,
                           const std::vector<Outcome>& outcomes) {
  util::Fnv64 h;
  h.u32(world.round());
  for (AntId a = 0; a < world.num_ants(); ++a) {
    const Outcome& o = outcomes[a];
    h.u8(static_cast<std::uint8_t>(o.kind));
    h.u32(o.nest);
    h.f64(o.quality);
    h.u32(o.count);
    h.u8(o.recruited ? 1 : 0);
    h.u8(o.recruit_succeeded ? 1 : 0);
    h.u32(world.location(a));
    for (NestId i = 0; i <= world.num_nests(); ++i) {
      h.u8(world.knows(a, i) ? 1 : 0);
    }
  }
  for (NestId i = 0; i <= world.num_nests(); ++i) h.u32(world.count(i));
  const RoundStats& s = world.last_round_stats();
  for (const std::uint32_t v :
       {s.searches, s.gos, s.active_recruits, s.passive_recruits, s.idles,
        s.successful_recruitments, s.self_recruitments,
        s.cross_nest_recruitments}) {
    h.u32(v);
  }
  return h.digest();
}

struct ViolationRun {
  std::string message;
  std::uint64_t digest = 0;
};

/// The illegal calls: each fails a different check of validate().
enum class Illegal { kRecruitHome, kGoUnknown, kIdle };

/// Rounds 1-2 legal, round 3 illegal at ant 40 (after 40 ants' searches,
/// recruits and goes), then three legal rounds whose digests are folded.
template <typename World>
ViolationRun run_violation(World& world, Illegal illegal) {
  const AntId n = world.num_ants();
  util::Rng mix(23);
  std::vector<Action> actions(n);
  const auto known_nest = [&](AntId a) {
    NestId known = kHomeNest;
    for (NestId i = 1; i <= world.num_nests(); ++i) {
      if (world.knows(a, i) && (known == kHomeNest || mix.bernoulli(0.5))) {
        known = i;
      }
    }
    return known;
  };
  const auto legal_round = [&] {
    for (AntId a = 0; a < n; ++a) {
      const NestId known = known_nest(a);
      const double u = mix.uniform_double();
      if (known == kHomeNest || u < 0.2) {
        actions[a] = Action::search();
      } else if (u < 0.75) {
        actions[a] = Action::recruit(mix.bernoulli(0.8), known);
      } else {
        actions[a] = Action::go(known);
      }
    }
    return world.step(actions);
  };
  ViolationRun run;
  for (int r = 0; r < 2; ++r) (void)legal_round();
  for (AntId a = 0; a < n; ++a) {
    const NestId known = known_nest(a);
    actions[a] = a % 3 == 0   ? Action::search()
                 : a % 3 == 1 ? Action::recruit(a % 2 == 0, known)
                              : Action::go(known);
  }
  switch (illegal) {
    case Illegal::kRecruitHome:  // recruit(1, 0) is never legal
      actions[40] = Action::recruit(true, kHomeNest);
      break;
    case Illegal::kGoUnknown: {
      NestId unknown = 1;
      while (world.knows(40, unknown)) ++unknown;
      actions[40] = Action::go(unknown);
      break;
    }
    case Illegal::kIdle:  // the world does not allow idle
      actions[40] = Action::idle();
      break;
  }
  try {
    (void)world.step(actions);
  } catch (const ModelViolation& e) {
    run.message = e.what();
  }
  util::Fnv64 h;
  for (int r = 0; r < 3; ++r) {
    const std::vector<Outcome> outcomes = legal_round();
    h.u64(digest_round(world, outcomes));
  }
  run.digest = h.digest();
  return run;
}

TEST_P(EnvironmentPairing, ModelViolationParity) {
  struct Pin {
    PairingKind pairing;
    bool noisy;
    Illegal illegal;
    const char* message;
    std::uint64_t digest;
  };
  constexpr const char* kIdleMessage =
      "ant 40, round 3: idle is not part of the model (enable allow_idle "
      "for the fault/asynchrony extensions)";
  const Pin pins[] = {
      {PairingKind::kPermutation, false, Illegal::kRecruitHome,
       "ant 40, round 3: recruit(1, 0) must advertise a candidate nest",
       0x3c760a5932c9e910ULL},
      {PairingKind::kPermutation, true, Illegal::kGoUnknown,
       "ant 40, round 3: go(2) without knowledge", 0x0a566e835d009033ULL},
      {PairingKind::kUniformProposal, false, Illegal::kIdle, kIdleMessage,
       0x8b497bc862852c83ULL},
      {PairingKind::kUniformProposal, true, Illegal::kRecruitHome,
       "ant 40, round 3: recruit(1, 0) must advertise a candidate nest",
       0x05707b8650f8b950ULL},
      {PairingKind::kCounter, false, Illegal::kGoUnknown,
       "ant 40, round 3: go(1) without knowledge", 0x3dd0eeb3549f095cULL},
      {PairingKind::kCounter, true, Illegal::kIdle, kIdleMessage,
       0x7760baf9c30c9860ULL},
  };
  const NoiseConfig noise{0.2, 0.05, 0.0};
  for (const Pin& pin : pins) {
    if (pin.pairing != GetParam()) continue;
    const auto cfg = config(60, {1.0, 0.0, 1.0, 0.0, 0.5}, 57);
    const NoiseConfig observe = pin.noisy ? noise : NoiseConfig{};
    Environment world(cfg, make_pairing_model(pin.pairing), observe);
    test::ReferenceWorld reference(cfg, make_pairing_model(pin.pairing),
                                   observe);
    const ViolationRun got = run_violation(world, pin.illegal);
    const ViolationRun want = run_violation(reference, pin.illegal);
    const std::string label = pin.noisy ? "noisy" : "exact";
    EXPECT_EQ(got.message, want.message) << label;
    EXPECT_EQ(got.digest, want.digest) << label;
    EXPECT_EQ(got.message, pin.message) << label;
    EXPECT_EQ(got.digest, pin.digest) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairings, EnvironmentPairing,
    ::testing::Values(PairingKind::kPermutation, PairingKind::kUniformProposal,
                      PairingKind::kCounter),
    [](const ::testing::TestParamInfo<PairingKind>& info) {
      std::string name(pairing_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Environment, SelfRecruitmentCountsInStats) {
  Environment e(config(1, {1.0}, 5));
  std::vector<Action> search{Action::search()};
  e.step(search);
  std::vector<Action> recruit{Action::recruit(true, 1)};
  e.step(recruit);
  // A lone recruiter always pairs with itself (Lemma 3.1's remark).
  EXPECT_EQ(e.last_round_stats().self_recruitments, 1u);
  EXPECT_EQ(e.last_round_stats().successful_recruitments, 1u);
}

}  // namespace
}  // namespace hh::env
