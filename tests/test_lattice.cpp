// The honeycomb-lattice backend and its walker workload: geometry,
// first-passage accounting, engine equivalence through the Simulation
// driver, world gating (AlgorithmSpec::env_backend), and the identity rule
// (home-nest fingerprints unchanged; lattice scenarios get their own
// fingerprint vocabulary).
#include "env/lattice.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "analysis/result_store.hpp"
#include "analysis/runner.hpp"
#include "analysis/spec.hpp"
#include "core/registry.hpp"
#include "core/simulation.hpp"
#include "core/walker_ant.hpp"
#include "util/contracts.hpp"

namespace hh {
namespace {

using env::LatticeBackend;
using env::LatticeConfig;

// --- geometry ---------------------------------------------------------------

TEST(LatticeGeometry, EveryEdgeIsAnInvolutionWithItsReverse) {
  LatticeConfig cfg;
  cfg.width = 8;
  cfg.height = 6;
  LatticeBackend world(1, cfg, 1);
  const auto reverse = [](std::uint8_t dir) -> std::uint8_t {
    if (dir == LatticeBackend::kEast) return LatticeBackend::kWest;
    if (dir == LatticeBackend::kWest) return LatticeBackend::kEast;
    return LatticeBackend::kVertical;
  };
  for (std::uint32_t site = 0; site < world.num_locations(); ++site) {
    for (std::uint8_t dir = 0; dir < 3; ++dir) {
      const std::uint32_t there = world.neighbor(site, dir);
      ASSERT_LT(there, world.num_locations());
      EXPECT_NE(there, site);
      EXPECT_EQ(world.neighbor(there, reverse(dir)), site)
          << "site " << site << " dir " << unsigned(dir);
    }
  }
}

TEST(LatticeGeometry, DegreeThreeWithDistinctNeighbors) {
  LatticeConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  LatticeBackend world(1, cfg, 1);
  for (std::uint32_t site = 0; site < world.num_locations(); ++site) {
    std::set<std::uint32_t> neighbors;
    for (std::uint8_t dir = 0; dir < 3; ++dir) {
      neighbors.insert(world.neighbor(site, dir));
    }
    EXPECT_EQ(neighbors.size(), 3u) << "site " << site;
  }
}

TEST(LatticeGeometry, AutoTargetIsTheAntipode) {
  LatticeConfig cfg;
  cfg.width = 8;
  cfg.height = 6;
  cfg.nest_site = 0;
  EXPECT_EQ(env::lattice_target_site(cfg), 3u * 8u + 4u);
  cfg.target_site = 17;
  EXPECT_EQ(env::lattice_target_site(cfg), 17u);
}

TEST(LatticeGeometry, RejectsOddAndDegenerateDimensions) {
  LatticeConfig odd;
  odd.width = 5;
  EXPECT_THROW(LatticeBackend(1, odd, 1), ContractViolation);
  LatticeConfig tiny;
  tiny.width = 2;
  tiny.height = 0;
  EXPECT_THROW(LatticeBackend(1, tiny, 1), ContractViolation);
  LatticeConfig self;
  self.target_site = 0;  // == nest_site
  EXPECT_THROW(LatticeBackend(1, self, 1), ContractViolation);
  LatticeConfig huge;  // even extents whose site count wraps uint32
  huge.width = 1u << 17;
  huge.height = 1u << 16;
  EXPECT_THROW(LatticeBackend(1, huge, 1), ContractViolation);
}

// --- first passage ----------------------------------------------------------

TEST(LatticeFirstPassage, RecordsTheFirstVisitAndNeverRewrites) {
  LatticeConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  LatticeBackend world(3, cfg, 99);
  std::vector<env::MaskedOp> op(3, env::MaskedOp::kGo);
  // Round 1: ant 0 jumps straight onto the target; others go to site 1.
  std::vector<env::NestId> targets = {world.target_site(), 1, 1};
  world.step_masked_go_quiet(op, targets);
  EXPECT_TRUE(world.reached(0));
  EXPECT_FALSE(world.reached(1));
  EXPECT_EQ(world.reached_count(), 1u);
  EXPECT_EQ(world.first_passage()[0], 1u);
  // Round 2: ant 0 leaves, ant 1 arrives; ant 0's record must not move.
  targets = {1, world.target_site(), 1};
  world.step_masked_go_quiet(op, targets);
  EXPECT_EQ(world.first_passage()[0], 1u);
  EXPECT_EQ(world.first_passage()[1], 2u);
  EXPECT_EQ(world.first_passage()[2], 0u);
  EXPECT_EQ(world.reached_count(), 2u);
  // Round 3: ant 0 returns to the target — still the round-1 record.
  targets = {world.target_site(), 1, 1};
  world.step_masked_go_quiet(op, targets);
  EXPECT_EQ(world.first_passage()[0], 1u);
  EXPECT_EQ(world.reached_count(), 2u);
}

// --- the walker workload through the Simulation driver ----------------------

core::SimulationConfig walker_config(std::uint64_t seed = 7) {
  core::SimulationConfig config;
  config.num_ants = 64;
  config.qualities = {1.0};
  config.seed = seed;
  config.env_backend = env::BackendKind::kLattice;
  config.lattice.width = 8;
  config.lattice.height = 8;
  config.convergence_tolerance = 0.05;
  return config;
}

core::Simulation make_walker_sim(core::SimulationConfig config) {
  const auto spec = core::AlgorithmRegistry::instance().find(
      core::kLatticeWalkerAlgorithmName);
  HH_EXPECTS(spec != nullptr);
  return core::Simulation(config, *spec);
}

TEST(LatticeWalkers, AutoSelectsPackedWithNoFallback) {
  auto sim = make_walker_sim(walker_config());
  EXPECT_EQ(sim.engine_used(), core::EngineKind::kPacked);
  EXPECT_TRUE(sim.engine_fallback().empty());
  const core::RunResult result = sim.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.winner, 1u);
  EXPECT_DOUBLE_EQ(result.winner_quality, 1.0);
}

TEST(LatticeWalkers, ScalarAndPackedAreBitIdentical) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xFEEDull}) {
    auto scalar_config = walker_config(seed);
    scalar_config.engine = core::EngineKind::kScalar;
    auto packed_config = walker_config(seed);
    packed_config.engine = core::EngineKind::kPacked;
    auto scalar = make_walker_sim(scalar_config);
    auto packed = make_walker_sim(packed_config);
    const core::RunResult a = scalar.run();
    const core::RunResult b = packed.run();
    EXPECT_EQ(a.converged, b.converged) << seed;
    EXPECT_EQ(a.rounds, b.rounds) << seed;
    EXPECT_EQ(a.rounds_executed, b.rounds_executed) << seed;
    EXPECT_EQ(a.winner, b.winner) << seed;
    EXPECT_EQ(a.first_passage, b.first_passage) << seed;
  }
}

TEST(LatticeWalkers, PartialSynchronyRunsPackedAndStaysEquivalent) {
  auto config = walker_config(0x50C);
  config.skip_probability = 0.3;
  auto sim = make_walker_sim(config);
  EXPECT_EQ(sim.engine_used(), core::EngineKind::kPacked);
  EXPECT_TRUE(sim.engine_fallback().empty());

  auto scalar_config = config;
  scalar_config.engine = core::EngineKind::kScalar;
  auto scalar = make_walker_sim(scalar_config);
  const core::RunResult a = sim.run();
  const core::RunResult b = scalar.run();
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.first_passage, b.first_passage);
}

TEST(LatticeWalkers, RunResultsArePinned) {
  // ScalarAndPackedAreBitIdentical compares the engines with each other,
  // so it cannot see a change both engines share (the lattice detector is
  // one); these pins, recorded on a separate agreement rule, can.
  struct Pin {
    std::uint64_t seed;
    double tolerance;
    double skip;
    std::uint32_t rounds;  // == rounds_executed: stability 0, converged
  };
  const Pin pins[] = {
      {1, 0.0, 0.0, 634},       {1, 0.0, 0.3, 528},
      {1, 0.05, 0.0, 296},      {1, 0.05, 0.3, 371},
      {42, 0.0, 0.0, 352},      {42, 0.0, 0.3, 975},
      {42, 0.05, 0.0, 274},     {42, 0.05, 0.3, 529},
      {0xFEED, 0.0, 0.0, 476},  {0xFEED, 0.0, 0.3, 464},
      {0xFEED, 0.05, 0.0, 356}, {0xFEED, 0.05, 0.3, 335},
  };
  for (const Pin& pin : pins) {
    for (const auto engine :
         {core::EngineKind::kScalar, core::EngineKind::kPacked}) {
      auto config = walker_config(pin.seed);
      config.convergence_tolerance = pin.tolerance;
      config.skip_probability = pin.skip;
      config.engine = engine;
      const core::RunResult r = make_walker_sim(config).run();
      const std::string label = std::to_string(pin.seed) + " tol " +
                                std::to_string(pin.tolerance) + " skip " +
                                std::to_string(pin.skip) + " " +
                                std::string(core::engine_name(engine));
      EXPECT_TRUE(r.converged) << label;
      EXPECT_EQ(r.rounds, pin.rounds) << label;
      EXPECT_EQ(r.rounds_executed, pin.rounds) << label;
      EXPECT_EQ(r.winner, 1u) << label;
    }
  }
}

TEST(LatticeWalkers, FirstPassageLandsOnTheRunResult) {
  auto sim = make_walker_sim(walker_config());
  const core::RunResult result = sim.run();
  ASSERT_EQ(result.first_passage.size(), 64u);
  std::size_t reached = 0;
  for (const std::uint32_t t : result.first_passage) {
    if (t != 0) {
      ++reached;
      EXPECT_LE(t, result.rounds_executed);
    }
  }
  // Convergence at tolerance 0.05 requires >= 95% arrivals.
  EXPECT_GE(reached, 61u);
}

// --- world gating (AlgorithmSpec::env_backend) ------------------------------

constexpr core::EngineKind kEveryEngine[] = {
    core::EngineKind::kAuto, core::EngineKind::kScalar,
    core::EngineKind::kPacked};

TEST(LatticeCapabilities, HomeNestAlgorithmsRefuseTheLattice) {
  for (const core::EngineKind engine : kEveryEngine) {
    auto config = walker_config();
    config.engine = engine;
    try {
      core::Simulation sim(config, core::AlgorithmKind::kSimple);
      ADD_FAILURE() << "expected invalid_argument on "
                    << core::engine_name(engine);
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "algorithm 'simple' does not run in the 'lattice' "
                   "environment backend (its declared worlds gate both "
                   "engines)");
    }
  }
}

TEST(LatticeCapabilities, WalkersRefuseTheHomeNestWorld) {
  for (const core::EngineKind engine : kEveryEngine) {
    core::SimulationConfig config;
    config.num_ants = 16;
    config.qualities = {1.0};
    config.seed = 3;
    config.engine = engine;
    try {
      (void)make_walker_sim(config);
      ADD_FAILURE() << "expected invalid_argument on "
                    << core::engine_name(engine);
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "algorithm 'lattice-walker' does not run in the "
                   "'home-nest' environment backend (its declared worlds "
                   "gate both engines)");
    }
  }
}

TEST(LatticeCapabilities, FaultsAndNoiseAreRefusedOffTheHomeNest) {
  auto config = walker_config();
  config.faults.crash_fraction = 0.1;
  EXPECT_THROW(make_walker_sim(config), std::invalid_argument);
  auto noisy = walker_config();
  noisy.noise.count_sigma = 0.2;
  EXPECT_THROW(make_walker_sim(noisy), std::invalid_argument);
}

TEST(LatticeCapabilities, QualitiesMustBeASingletonPseudoNest) {
  auto config = walker_config();
  config.qualities = {1.0, 0.5};
  EXPECT_THROW(make_walker_sim(config), ContractViolation);
}

// --- identity rule ----------------------------------------------------------

TEST(LatticeIdentity, HomeNestIdentityJsonHasNoBackendKey) {
  analysis::Scenario home;
  home.name = "home";
  home.algorithm = "simple";
  home.config.num_ants = 32;
  home.config.qualities = {1.0, 0.0};
  const std::string identity = analysis::scenario_identity_json(home);
  EXPECT_EQ(identity.find("env_backend"), std::string::npos);
  EXPECT_EQ(identity.find("lattice"), std::string::npos);
}

TEST(LatticeIdentity, LatticeScenariosGetTheirOwnFingerprintVocabulary) {
  analysis::Scenario walkers;
  walkers.name = "walkers";
  walkers.algorithm = std::string(core::kLatticeWalkerAlgorithmName);
  walkers.config = walker_config();
  const std::string identity = analysis::scenario_identity_json(walkers);
  EXPECT_NE(identity.find("\"env_backend\""), std::string::npos);
  EXPECT_NE(identity.find("\"lattice\""), std::string::npos);

  // Every geometry/motility knob is outcome-determining: flipping one
  // must move the fingerprint.
  auto other = walkers;
  other.config.lattice.fast_fraction = 0.9;
  EXPECT_NE(analysis::scenario_fingerprint(walkers),
            analysis::scenario_fingerprint(other));
}

TEST(LatticeIdentity, ConfigJsonRoundTripsTheLatticeBlock) {
  analysis::Scenario walkers;
  walkers.name = "walkers";
  walkers.algorithm = std::string(core::kLatticeWalkerAlgorithmName);
  walkers.config = walker_config();
  walkers.config.lattice.persist_slow = 0.125;
  walkers.config.lattice.target_site = 13;

  analysis::ExperimentSpec spec;
  spec.name = "round-trip";
  analysis::SweepEntry entry;
  entry.name = "cell";
  entry.trials = 1;
  entry.scenarios = {walkers};
  spec.sweeps.push_back(std::move(entry));
  const std::string dumped = analysis::dump_experiment_spec(spec);
  const analysis::ExperimentSpec parsed =
      analysis::parse_experiment_spec(dumped);
  ASSERT_EQ(parsed.sweeps.size(), 1u);
  ASSERT_EQ(parsed.sweeps[0].scenarios.size(), 1u);
  const core::SimulationConfig& config =
      parsed.sweeps[0].scenarios[0].config;
  EXPECT_EQ(config.env_backend, env::BackendKind::kLattice);
  EXPECT_EQ(config.lattice.width, 8u);
  EXPECT_EQ(config.lattice.target_site, 13u);
  EXPECT_DOUBLE_EQ(config.lattice.persist_slow, 0.125);
  EXPECT_EQ(analysis::scenario_identity_json(walkers),
            analysis::scenario_identity_json(parsed.sweeps[0].scenarios[0]));
}

TEST(LatticeIdentity, LatticeBlockWithoutBackendFailsLoudly) {
  const std::string spec = R"({
    "anthill_spec": 1,
    "name": "bad",
    "sweeps": [{
      "name": "bad", "trials": 1,
      "scenarios": [{
        "name": "bad/cell",
        "algorithm": "lattice-walker",
        "config": {
          "num_ants": 8, "qualities": [1],
          "lattice": {"width": 4, "height": 4}
        }
      }]
    }]
  })";
  EXPECT_THROW((void)analysis::parse_experiment_spec(spec),
               std::runtime_error);
}

}  // namespace
}  // namespace hh
