// Tests of the simulation driver: determinism, trajectories, stepping,
// round caps, and the extension switches.
#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/registry.hpp"
#include "core/walker_ant.hpp"
#include "test_util.hpp"

namespace hh::core {
namespace {

TEST(SimulationConfig, BinaryQualitiesHelper) {
  const auto q = SimulationConfig::binary_qualities(5, 2);
  ASSERT_EQ(q.size(), 5u);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 1.0);
  EXPECT_DOUBLE_EQ(q[2], 1.0);
  EXPECT_DOUBLE_EQ(q[3], 0.0);
  EXPECT_DOUBLE_EQ(q[4], 0.0);
  EXPECT_THROW((void)SimulationConfig::binary_qualities(3, 3),
               ContractViolation);  // needs one good nest
}

TEST(Simulation, SameSeedSameResult) {
  const auto cfg = test::small_config(64, 4, 2, 777);
  const RunResult a = test::run_once(cfg, AlgorithmKind::kSimple);
  const RunResult b = test::run_once(cfg, AlgorithmKind::kSimple);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.total_recruitments, b.total_recruitments);
}

TEST(Simulation, DifferentSeedsUsuallyDiffer) {
  bool any_difference = false;
  const RunResult base =
      test::run_once(test::small_config(64, 4, 2, 1), AlgorithmKind::kSimple);
  for (std::uint64_t seed = 2; seed <= 6 && !any_difference; ++seed) {
    const RunResult other = test::run_once(test::small_config(64, 4, 2, seed),
                                           AlgorithmKind::kSimple);
    any_difference = other.rounds != base.rounds || other.winner != base.winner;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Simulation, WinnerIsAlwaysGoodNest) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RunResult r =
        test::run_once(test::small_config(64, 4, 2, seed), AlgorithmKind::kSimple);
    ASSERT_TRUE(r.converged) << "seed " << seed;
    EXPECT_GE(r.winner, 1u);
    EXPECT_LE(r.winner, 2u);  // nests 3, 4 are bad
    EXPECT_DOUBLE_EQ(r.winner_quality, 1.0);
  }
}

TEST(Simulation, StepwiseDrivingMatchesRun) {
  const auto cfg = test::small_config(64, 4, 2, 42);
  Simulation by_steps(cfg, AlgorithmKind::kSimple);
  std::uint32_t steps = 0;
  while (!by_steps.step()) {
    ++steps;
    ASSERT_LT(steps, by_steps.max_rounds());
  }
  Simulation by_run(cfg, AlgorithmKind::kSimple);
  const RunResult r = by_run.run();
  EXPECT_EQ(by_steps.round(), r.rounds);
  EXPECT_EQ(by_steps.detector().winner(), r.winner);
}

TEST(Simulation, RunContinuesAfterManualSteps) {
  const auto cfg = test::small_config(64, 4, 2, 42);
  Simulation sim(cfg, AlgorithmKind::kSimple);
  sim.step();
  sim.step();
  const RunResult r = sim.run();
  EXPECT_TRUE(r.converged);
  Simulation fresh(cfg, AlgorithmKind::kSimple);
  EXPECT_EQ(r.rounds, fresh.run().rounds);
}

TEST(Simulation, MaxRoundsCapRespected) {
  auto cfg = test::small_config(64, 4, 2, 1);
  cfg.max_rounds = 3;  // way too few to converge
  const RunResult r = test::run_once(cfg, AlgorithmKind::kSimple);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.rounds_executed, 3u);
}

TEST(Simulation, AutoMaxRoundsGrowsWithProblemSize) {
  auto small = test::small_config(64, 2, 1);
  auto large = test::small_config(1 << 16, 32, 16);
  Simulation s1(small, AlgorithmKind::kSimple);
  Simulation s2(large, AlgorithmKind::kSimple);
  EXPECT_GT(s2.max_rounds(), s1.max_rounds());
}

TEST(Simulation, AutoMaxRoundsSaturatesAtUint32Max) {
  // The home-nest cap 200(k+2)(log2 n + 2) + 1000 for a 64-ant, k = 2
  // colony: log2 64 = 6.
  EXPECT_EQ(Simulation::auto_max_rounds(test::small_config(64, 2, 1)), 7400u);
  // n = 2^32-1 and k = 631,621 push the bound past UINT32_MAX (from
  // k = 631,611 on): the cap saturates instead of wrapping.
  SimulationConfig huge;
  huge.num_ants = std::numeric_limits<std::uint32_t>::max();
  huge.qualities.assign(631'621, 1.0);
  EXPECT_EQ(Simulation::auto_max_rounds(huge),
            std::numeric_limits<std::uint32_t>::max());
}

// The packed engine's world holds only the lanes its masked rounds read:
// no knowledge table, no Outcome rows. A scalar build of the same config
// keeps both, so the reference path still tracks knowledge and validates.
TEST(Simulation, PackedWorldKeepsNoKnowledgeScalarWorldValidates) {
  auto cfg = test::small_config(256, 8, 4, 5);
  cfg.pairing = env::PairingKind::kCounter;
  cfg.engine = EngineKind::kPacked;
  Simulation packed(cfg, AlgorithmKind::kOptimal);
  ASSERT_TRUE(packed.packed());
  packed.step();
  EXPECT_THROW((void)packed.environment().knows(0, 1), ContractViolation);

  cfg.engine = EngineKind::kScalar;
  Simulation scalar(cfg, AlgorithmKind::kOptimal);
  ASSERT_FALSE(scalar.packed());
  scalar.step();  // round 1: every ant searches and learns its nest
  for (env::AntId a = 0; a < cfg.num_ants; ++a) {
    const env::NestId at = scalar.environment().location(a);
    ASSERT_NE(at, env::kHomeNest);
    EXPECT_TRUE(scalar.environment().knows(a, at)) << "ant " << a;
  }
  // Both engines ran the same round.
  for (env::AntId a = 0; a < cfg.num_ants; ++a) {
    EXPECT_EQ(packed.environment().location(a), scalar.environment().location(a));
  }

  // go(1) in round 1, before any ant knows nest 1: the scalar world's
  // validation rejects it.
  class BlindGoAnt final : public Ant {
   public:
    env::Action decide(std::uint32_t) override { return env::Action::go(1); }
    void observe(const env::Outcome&) override {}
    [[nodiscard]] env::NestId committed_nest() const override {
      return env::kHomeNest;
    }
    [[nodiscard]] std::string_view name() const override { return "blind-go"; }
  };
  Colony colony;
  colony.algorithm = "blind-go";
  colony.faults = env::FaultPlan::none(cfg.num_ants);
  for (env::AntId a = 0; a < cfg.num_ants; ++a) {
    colony.ants.push_back(std::make_unique<BlindGoAnt>());
  }
  Simulation blind(cfg, std::move(colony));
  EXPECT_THROW(blind.step(), ModelViolation);
}

TEST(Simulation, TrajectoriesRecordedWhenRequested) {
  auto cfg = test::small_config(64, 4, 2, 3);
  cfg.record_trajectories = true;
  Simulation sim(cfg, AlgorithmKind::kSimple);
  const RunResult r = sim.run();
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.trajectories.counts.size(), r.rounds_executed);
  ASSERT_EQ(r.trajectories.committed.size(), r.rounds_executed);
  ASSERT_EQ(r.trajectories.round_stats.size(), r.rounds_executed);
  for (const auto& row : r.trajectories.counts) {
    ASSERT_EQ(row.size(), 5u);  // home + 4 nests
    std::uint32_t total = 0;
    for (auto c : row) total += c;
    EXPECT_EQ(total, 64u);
  }
  // Final committed census: everyone on the winner.
  const auto& last = r.trajectories.committed.back();
  EXPECT_EQ(last[r.winner], 64u);
}

TEST(Simulation, TrajectoriesEmptyByDefault) {
  const RunResult r =
      test::run_once(test::small_config(64, 4, 2, 3), AlgorithmKind::kSimple);
  EXPECT_TRUE(r.trajectories.counts.empty());
}

TEST(Simulation, CommittedCensusSumsToCorrectAnts) {
  auto cfg = test::small_config(32, 4, 2, 5);
  Simulation sim(cfg, AlgorithmKind::kSimple);
  sim.step();
  const auto census = sim.committed_census();
  std::uint32_t total = 0;
  for (auto c : census) total += c;
  EXPECT_EQ(total, 32u);
}

TEST(Simulation, StabilityWindowExtendsRun) {
  auto cfg = test::small_config(64, 4, 2, 9);
  const RunResult fast = test::run_once(cfg, AlgorithmKind::kSimple);
  cfg.stability_rounds = 25;
  const RunResult slow = test::run_once(cfg, AlgorithmKind::kSimple);
  ASSERT_TRUE(fast.converged);
  ASSERT_TRUE(slow.converged);
  // Same decision round (agreement is stable), more rounds executed.
  EXPECT_EQ(slow.rounds, fast.rounds);
  EXPECT_EQ(slow.rounds_executed, slow.rounds + 25);
}

TEST(Simulation, ColonySizeMustMatchConfig) {
  auto cfg = test::small_config(8, 2, 1);
  Colony colony = make_colony(4, AlgorithmKind::kSimple, 1);
  EXPECT_THROW(Simulation(cfg, std::move(colony)), ContractViolation);
}

TEST(Simulation, NegativeSkipProbabilityRejected) {
  // The spec layer refuses a skip probability below 0, and so does the
  // C++ API, on both engines (it would otherwise run as full synchrony).
  auto cfg = test::small_config(32, 4, 2, 3);
  cfg.skip_probability = -0.5;
  for (const EngineKind engine : {EngineKind::kScalar, EngineKind::kPacked}) {
    cfg.engine = engine;
    EXPECT_THROW(Simulation(cfg, AlgorithmKind::kSimple), ContractViolation)
        << engine_name(engine);
  }
}

TEST(Simulation, ConvergenceToleranceOutsideTheUnitIntervalRejected) {
  // Agreement needs a (1 - tolerance) share of the correct ants: at 1 one
  // committed ant would do, and below 0 no census ever does. Both are
  // refused at construction, on both engines and in both worlds.
  auto home = test::small_config(32, 4, 2, 3);
  SimulationConfig lattice;
  lattice.num_ants = 16;
  lattice.qualities = {1.0};
  lattice.env_backend = env::BackendKind::kLattice;
  lattice.lattice.width = 8;
  lattice.lattice.height = 8;
  const auto walker =
      AlgorithmRegistry::instance().find(kLatticeWalkerAlgorithmName);
  ASSERT_NE(walker, nullptr);
  for (const double tolerance : {-0.5, 1.0}) {
    for (const EngineKind engine : {EngineKind::kScalar, EngineKind::kPacked}) {
      home.convergence_tolerance = tolerance;
      home.engine = engine;
      EXPECT_THROW(Simulation(home, AlgorithmKind::kSimple), ContractViolation)
          << tolerance << " " << engine_name(engine);
      lattice.convergence_tolerance = tolerance;
      lattice.engine = engine;
      EXPECT_THROW(Simulation(lattice, *walker), ContractViolation)
          << tolerance << " " << engine_name(engine) << " lattice";
    }
  }
}

TEST(Simulation, TotalRecruitmentsAccumulate) {
  const RunResult r =
      test::run_once(test::small_config(64, 4, 2, 5), AlgorithmKind::kSimple);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.total_recruitments, 0u);
}

TEST(Simulation, PartialSynchronySimpleStillConverges) {
  auto cfg = test::small_config(128, 4, 2, 11);
  cfg.skip_probability = 0.2;
  const RunResult r = test::run_once(cfg, AlgorithmKind::kSimple);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.winner_quality, 1.0);
}

TEST(Simulation, NoisySimpleStillConverges) {
  auto cfg = test::small_config(128, 4, 2, 12);
  cfg.noise.count_sigma = 0.3;
  const RunResult r = test::run_once(cfg, AlgorithmKind::kSimple);
  EXPECT_TRUE(r.converged);
}

TEST(Simulation, CrashFaultsSimpleStillConverges) {
  auto cfg = test::small_config(128, 4, 2, 13);
  cfg.faults.crash_fraction = 0.1;
  const RunResult r = test::run_once(cfg, AlgorithmKind::kSimple);
  EXPECT_TRUE(r.converged);
}

TEST(Simulation, AlternativePairingStillConverges) {
  auto cfg = test::small_config(128, 4, 2, 14);
  cfg.pairing = env::PairingKind::kUniformProposal;
  const RunResult r = test::run_once(cfg, AlgorithmKind::kSimple);
  EXPECT_TRUE(r.converged);
}

TEST(Simulation, SimpleAntsOnlyTandemRunOptimalAntsTransport) {
  // Section 6 accounting: SimpleAnt never finalizes, so every successful
  // recruitment is a tandem run; Algorithm 2's final phase transports.
  const auto cfg = test::small_config(128, 4, 2, 15);
  const RunResult simple = test::run_once(cfg, AlgorithmKind::kSimple);
  ASSERT_TRUE(simple.converged);
  EXPECT_GT(simple.total_tandem_runs, 0u);
  EXPECT_EQ(simple.total_transports, 0u);
  EXPECT_EQ(simple.total_tandem_runs + simple.total_transports,
            simple.total_recruitments);

  auto optimal_cfg = cfg;
  optimal_cfg.stability_rounds = 8;  // let the final phase do some work
  const RunResult optimal = test::run_once(optimal_cfg, AlgorithmKind::kOptimal);
  ASSERT_TRUE(optimal.converged);
  EXPECT_GT(optimal.total_transports, 0u);
  EXPECT_EQ(optimal.total_tandem_runs + optimal.total_transports,
            optimal.total_recruitments);
}

TEST(Simulation, TandemTransportTrajectoriesRecorded) {
  auto cfg = test::small_config(64, 4, 2, 16);
  cfg.record_trajectories = true;
  Simulation sim(cfg, AlgorithmKind::kOptimal);
  const RunResult r = sim.run();
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.trajectories.tandem_successes.size(), r.rounds_executed);
  ASSERT_EQ(r.trajectories.transport_successes.size(), r.rounds_executed);
  std::uint64_t tandem = 0;
  std::uint64_t transport = 0;
  for (std::size_t i = 0; i < r.trajectories.tandem_successes.size(); ++i) {
    tandem += r.trajectories.tandem_successes[i];
    transport += r.trajectories.transport_successes[i];
  }
  EXPECT_EQ(tandem, r.total_tandem_runs);
  EXPECT_EQ(transport, r.total_transports);
}

TEST(Simulation, ApproximateKnowledgeOfNStillConverges) {
  // Section 6 bullet 1: per-ant beliefs n~ in [n/2, 3n/2].
  AlgorithmParams params;
  params.n_estimate_error = 0.5;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto cfg = test::small_config(256, 4, 2, 9100 + seed);
    const RunResult r = test::run_once(cfg, AlgorithmKind::kSimple, params);
    ASSERT_TRUE(r.converged) << "seed " << seed;
    EXPECT_DOUBLE_EQ(r.winner_quality, 1.0);
  }
}

TEST(Simulation, ZeroNErrorIsByteIdenticalToBaseModel) {
  // The extension must not perturb the base model's random streams.
  const auto cfg = test::small_config(128, 4, 2, 17);
  AlgorithmParams exact;
  exact.n_estimate_error = 0.0;
  const RunResult a = test::run_once(cfg, AlgorithmKind::kSimple);
  const RunResult b = test::run_once(cfg, AlgorithmKind::kSimple, exact);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.total_recruitments, b.total_recruitments);
}

}  // namespace
}  // namespace hh::core
