// Packed-vs-scalar engine equivalence: for every algorithm with a packed
// implementation, the SoA fast path must reproduce the per-object
// reference path BIT-IDENTICALLY — same RunResult for the same
// SimulationConfig and seed, at any runner thread count. This is the
// contract that lets kAuto substitute the packed engine silently.
#include "core/ant_pack.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "analysis/scenario.hpp"
#include "core/registry.hpp"
#include "core/simulation.hpp"
#include "test_util.hpp"

namespace hh::core {
namespace {

const std::vector<AlgorithmKind> kPackedKinds = {
    AlgorithmKind::kSimple,         AlgorithmKind::kRateBoosted,
    AlgorithmKind::kQualityAware,   AlgorithmKind::kUniformRecruit,
    AlgorithmKind::kQuorum,         AlgorithmKind::kOptimal,
    AlgorithmKind::kOptimalSettle,
};

SimulationConfig base_config(std::uint64_t seed) {
  SimulationConfig cfg;
  cfg.num_ants = 128;
  cfg.qualities = SimulationConfig::binary_qualities(4, 2);
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const RunResult& scalar, const RunResult& packed,
                      const std::string& label) {
  // The engine tag itself differs by construction — everything the model
  // produced must not.
  EXPECT_EQ(scalar.engine, EngineKind::kScalar) << label;
  EXPECT_EQ(packed.engine, EngineKind::kPacked) << label;
  EXPECT_EQ(scalar.converged, packed.converged) << label;
  EXPECT_EQ(scalar.rounds, packed.rounds) << label;
  EXPECT_EQ(scalar.rounds_executed, packed.rounds_executed) << label;
  EXPECT_EQ(scalar.winner, packed.winner) << label;
  EXPECT_EQ(scalar.winner_quality, packed.winner_quality) << label;
  EXPECT_EQ(scalar.total_recruitments, packed.total_recruitments) << label;
  EXPECT_EQ(scalar.total_tandem_runs, packed.total_tandem_runs) << label;
  EXPECT_EQ(scalar.total_transports, packed.total_transports) << label;
}

RunResult run_with_engine(SimulationConfig cfg, AlgorithmKind kind,
                          EngineKind engine, const AlgorithmParams& params = {}) {
  cfg.engine = engine;
  Simulation sim(cfg, kind, params);
  EXPECT_EQ(sim.packed(), engine == EngineKind::kPacked);
  return sim.run();
}

TEST(AntPack, AvailableForEveryBuiltInAlgorithm) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    EXPECT_TRUE(builtin_algorithm_spec(kind).pack) << algorithm_name(kind);
  }
}

TEST(AntPack, BitIdenticalToScalarForEveryPackedKindAndSeed) {
  // k = 32 as well as the base k = 4: only with more than 8 candidate
  // nests does rate-boosted's decaying boost, a function of the round
  // number, exceed the base probability — so the wide colony pins that
  // every packed decide sees the round the scalar ant sees.
  for (AlgorithmKind kind : kPackedKinds) {
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 9001ull}) {
      for (const std::uint32_t k : {4u, 32u}) {
        auto cfg = base_config(seed);
        cfg.qualities = SimulationConfig::binary_qualities(k, k / 2);
        const auto scalar = run_with_engine(cfg, kind, EngineKind::kScalar);
        const auto packed = run_with_engine(cfg, kind, EngineKind::kPacked);
        expect_identical(scalar, packed,
                         std::string(algorithm_name(kind)) + "/seed=" +
                             std::to_string(seed) + "/k=" + std::to_string(k));
      }
    }
  }
}

TEST(AntPack, BitIdenticalUnderNEstimateError) {
  // The believed-n draw consumes the per-ant RNG prefix; the packed path
  // must replicate it exactly.
  AlgorithmParams params;
  params.n_estimate_error = 0.25;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSimple, AlgorithmKind::kRateBoosted}) {
    const auto cfg = base_config(11);
    const auto scalar =
        run_with_engine(cfg, kind, EngineKind::kScalar, params);
    const auto packed =
        run_with_engine(cfg, kind, EngineKind::kPacked, params);
    expect_identical(scalar, packed, std::string(algorithm_name(kind)));
  }
}

TEST(AntPack, BitIdenticalUnderNoiseAndAlternatePairing) {
  // Noise and the pairing model live in the environment, which both
  // engines share — but the packed path must still consume the
  // environment RNG in the same order. Every config runs the fused masked
  // round, whose reordered census and pairing must be invisible under
  // every pairing model; noisy ones end it with the perception pass,
  // whose draws must land where step()'s phase 4 makes them.
  for (const env::PairingKind pairing :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    for (const bool noisy : {false, true}) {
      auto cfg = base_config(5);
      cfg.pairing = pairing;
      if (noisy) {
        cfg.noise.count_sigma = 0.3;
        cfg.noise.quality_flip_prob = 0.05;
      }
      for (AlgorithmKind kind : kPackedKinds) {
        const auto scalar = run_with_engine(cfg, kind, EngineKind::kScalar);
        const auto packed = run_with_engine(cfg, kind, EngineKind::kPacked);
        expect_identical(scalar, packed,
                         std::string(algorithm_name(kind)) + "/" +
                             std::string(env::pairing_name(pairing)) +
                             (noisy ? "/noisy" : "/exact"));
      }
    }
  }
}

/// A crash plan, a Byzantine plan, and both at once. Byzantine recruiters
/// keep a rotating pool of correct ants kidnapped, so those configs get
/// the paper's epsilon-agreement knobs plus a round cap (equivalence must
/// hold for non-converging executions too — both engines hit the cap the
/// same way).
std::vector<SimulationConfig> fault_configs(std::uint64_t seed) {
  SimulationConfig crash = base_config(seed);
  crash.faults.crash_fraction = 0.15;
  crash.faults.crash_horizon = 32;

  SimulationConfig byz = base_config(seed);
  byz.faults.byzantine_fraction = 0.05;
  byz.convergence_tolerance = 0.2;
  byz.stability_rounds = 4;
  byz.max_rounds = 400;

  SimulationConfig both = base_config(seed);
  both.faults.crash_fraction = 0.1;
  both.faults.byzantine_fraction = 0.05;
  both.convergence_tolerance = 0.25;
  both.stability_rounds = 4;
  both.max_rounds = 400;
  return {crash, byz, both};
}

TEST(AntPack, BitIdenticalUnderCrashAndByzantineFaultLanes) {
  // The pack-level fault lanes must reproduce the per-object wrappers
  // (CrashProneAnt freezing, ByzantineAnt scout-then-recruit) exactly —
  // for every algorithm, settle on and off included.
  for (AlgorithmKind kind : kPackedKinds) {
    for (std::uint64_t seed : {1ull, 9001ull}) {
      std::size_t variant = 0;
      for (const SimulationConfig& cfg : fault_configs(seed)) {
        const auto scalar = run_with_engine(cfg, kind, EngineKind::kScalar);
        const auto packed = run_with_engine(cfg, kind, EngineKind::kPacked);
        expect_identical(scalar, packed,
                         std::string(algorithm_name(kind)) + "/faults=" +
                             std::to_string(variant++) + "/seed=" +
                             std::to_string(seed));
      }
    }
  }
}

TEST(AntPack, BitIdenticalUnderFaultsWithNoise) {
  // Faulted AND noisy: the perception pass (noisy draws in ant order) with
  // fault lanes on top.
  auto cfg = base_config(17);
  cfg.faults.crash_fraction = 0.1;
  cfg.faults.byzantine_fraction = 0.05;
  cfg.noise.count_sigma = 0.25;
  cfg.noise.quality_flip_prob = 0.05;
  cfg.convergence_tolerance = 0.25;
  cfg.stability_rounds = 4;
  cfg.max_rounds = 400;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSimple, AlgorithmKind::kQuorum,
        AlgorithmKind::kOptimal, AlgorithmKind::kOptimalSettle}) {
    const auto scalar = run_with_engine(cfg, kind, EngineKind::kScalar);
    const auto packed = run_with_engine(cfg, kind, EngineKind::kPacked);
    expect_identical(scalar, packed, std::string(algorithm_name(kind)));
  }

  // Byzantine-heavy: with a 30% flip rate a scout often perceives a good
  // nest as bad, so the worst nest it settles on depends on its perceived
  // qualities, not the true ones — and the kidnapping it then does moves
  // the per-round census. Round-by-round pins, not just the aggregate.
  // Under partial synchrony Byzantine ants sleep too: a sleeping scout
  // neither searches nor learns, and a sleeping recruiter recruits no one.
  auto byz = base_config(0);
  byz.faults.byzantine_fraction = 0.1;
  byz.noise.quality_flip_prob = 0.3;
  byz.convergence_tolerance = 0.25;
  byz.stability_rounds = 4;
  byz.max_rounds = 400;
  byz.record_trajectories = true;
  for (const double skip : {0.0, 0.2}) {
    byz.skip_probability = skip;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      byz.seed = seed;
      for (const AlgorithmKind kind :
           {AlgorithmKind::kSimple, AlgorithmKind::kOptimal}) {
        const std::string label =
            std::string(algorithm_name(kind)) + "/byzantine-heavy/skip=" +
            std::to_string(skip) + "/seed=" + std::to_string(seed);
        const auto scalar = run_with_engine(byz, kind, EngineKind::kScalar);
        const auto packed = run_with_engine(byz, kind, EngineKind::kPacked);
        expect_identical(scalar, packed, label);
        EXPECT_EQ(scalar.trajectories.committed,
                  packed.trajectories.committed)
            << label;
      }
    }
  }
}

/// One round's stats as a comparable row.
std::array<std::uint32_t, 8> stats_row(const env::RoundStats& s) {
  return {s.searches,          s.gos,
          s.active_recruits,   s.passive_recruits,
          s.idles,             s.successful_recruitments,
          s.self_recruitments, s.cross_nest_recruitments};
}

TEST(AntPack, TrajectoriesMatchBetweenEngines) {
  // Round-by-round pins under every pairing model. The n = 1024, k = 8
  // colonies keep Algorithm 2's passive and final ants mixed for about 25
  // rounds, where the fused optimal pass's per-state lists and deferred
  // census updates do most of their work; n = 1000 also leaves a short
  // tail block for its 64-ant poached-final scan.
  const auto expect_same_trajectories = [](const SimulationConfig& cfg,
                                           AlgorithmKind kind,
                                           const std::string& label) {
    const auto scalar = run_with_engine(cfg, kind, EngineKind::kScalar);
    const auto packed = run_with_engine(cfg, kind, EngineKind::kPacked);
    const Trajectories& want = scalar.trajectories;
    const Trajectories& got = packed.trajectories;
    ASSERT_EQ(want.counts, got.counts) << label;
    ASSERT_EQ(want.committed, got.committed) << label;
    ASSERT_EQ(want.tandem_successes, got.tandem_successes) << label;
    ASSERT_EQ(want.transport_successes, got.transport_successes) << label;
    ASSERT_EQ(want.round_stats.size(), got.round_stats.size()) << label;
    for (std::size_t r = 0; r < want.round_stats.size(); ++r) {
      ASSERT_EQ(stats_row(want.round_stats[r]), stats_row(got.round_stats[r]))
          << label << " round " << r + 1;
    }
  };
  struct Case {
    std::uint32_t n;
    std::uint32_t k;
    std::vector<AlgorithmKind> kinds;
  };
  const std::vector<Case> cases = {
      {128, 4,
       {AlgorithmKind::kSimple, AlgorithmKind::kQuorum,
        AlgorithmKind::kOptimal, AlgorithmKind::kOptimalSettle}},
      {1024, 8, {AlgorithmKind::kOptimal, AlgorithmKind::kOptimalSettle}},
      {1000, 8, {AlgorithmKind::kOptimal}},
  };
  for (const env::PairingKind pairing :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    for (const Case& c : cases) {
      auto cfg = base_config(3);
      cfg.num_ants = c.n;
      cfg.qualities = SimulationConfig::binary_qualities(c.k, c.k / 2);
      cfg.pairing = pairing;
      cfg.record_trajectories = true;
      for (const AlgorithmKind kind : c.kinds) {
        expect_same_trajectories(
            cfg, kind,
            std::string(algorithm_name(kind)) + "/" +
                std::string(env::pairing_name(pairing)) +
                "/n=" + std::to_string(c.n));
      }
    }
  }

  // Laned Algorithm-2 colonies: crashed and sleeping ants freeze their
  // 4-round blocks, so every ant keeps its own block step and the kernel
  // runs per ant. A crash-scheduled ant is exempt from the committed
  // census from round 1 on, so the committed pins catch a commitment or
  // finalization move that forgets the exemption.
  struct Lane {
    const char* name;
    double crash_fraction;
    double skip_probability;
  };
  for (const Lane& lane : {Lane{"crash", 0.15, 0.0}, Lane{"skip", 0.0, 0.2},
                           Lane{"crash+skip", 0.15, 0.2}}) {
    for (const env::PairingKind pairing :
         {env::PairingKind::kPermutation, env::PairingKind::kCounter}) {
      for (const std::uint64_t seed : {3ull, 7ull}) {
        auto cfg = base_config(seed);
        cfg.faults.crash_fraction = lane.crash_fraction;
        cfg.faults.crash_horizon = 32;
        cfg.skip_probability = lane.skip_probability;
        cfg.pairing = pairing;
        cfg.max_rounds = 600;
        cfg.record_trajectories = true;
        for (const AlgorithmKind kind :
             {AlgorithmKind::kOptimal, AlgorithmKind::kOptimalSettle}) {
          expect_same_trajectories(
              cfg, kind,
              std::string(algorithm_name(kind)) + "/" + lane.name + "/" +
                  std::string(env::pairing_name(pairing)) +
                  "/seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(AntPack, PoachedFinalAntsMatchBetweenEngines) {
  // A final ant changes nests only when it is recruited to another nest
  // (it is "poached"), which ordinary seeds almost never produce. These
  // colonies keep rival final groups alive for hundreds of rounds and
  // poach thousands of times under each pairing model; their sizes also
  // leave a short tail block for the fused optimal pass's 64-ant scan.
  struct Case {
    std::uint32_t n;
    env::PairingKind pairing;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{100, env::PairingKind::kUniformProposal, 38},
                        Case{100, env::PairingKind::kCounter, 60},
                        Case{200, env::PairingKind::kPermutation, 36}}) {
    auto cfg = base_config(c.seed);
    cfg.num_ants = c.n;
    cfg.qualities = SimulationConfig::binary_qualities(8, 4);
    cfg.pairing = c.pairing;
    cfg.record_trajectories = true;
    const std::string label = std::string(env::pairing_name(c.pairing)) +
                              "/n=" + std::to_string(c.n) +
                              "/seed=" + std::to_string(c.seed);
    const auto scalar =
        run_with_engine(cfg, AlgorithmKind::kOptimal, EngineKind::kScalar);
    const auto packed =
        run_with_engine(cfg, AlgorithmKind::kOptimal, EngineKind::kPacked);
    expect_identical(scalar, packed, label);
    EXPECT_EQ(scalar.trajectories.counts, packed.trajectories.counts) << label;
    EXPECT_EQ(scalar.trajectories.committed, packed.trajectories.committed)
        << label;
  }
}

TEST(AntPack, RunnerBatchesAreIdenticalAcrossEnginesAndThreadCounts) {
  // The acceptance gate: engine axis x {1, 2, 8} runner threads, every
  // packed algorithm — one TrialStats mismatch anywhere fails.
  auto spec =
      analysis::SweepSpec("engine-equivalence")
          .base(base_config(0))
          .algorithms({"simple", "rate-boosted", "quality-aware",
                       "uniform-recruit", "quorum", "optimal",
                       "optimal+settle"})
          .engines({EngineKind::kScalar, EngineKind::kPacked});
  const auto scenarios = spec.expand();
  constexpr std::size_t kTrials = 16;
  constexpr std::uint64_t kSeed = 77;

  std::vector<analysis::BatchResult> batches;
  for (unsigned threads : {1u, 2u, 8u}) {
    const analysis::Runner runner(analysis::RunnerOptions{threads});
    batches.push_back(runner.run(scenarios, kTrials, kSeed));
  }

  for (const auto& batch : batches) {
    // Scenarios alternate scalar/packed per algorithm; compare each pair.
    // IMPORTANT: both engine cells of one algorithm see the same trial
    // seeds because trial_seed depends only on (base_seed, scenario,
    // trial) — but scenario INDEX differs between the engine cells, so
    // compare via per-trial re-runs at equal seeds instead.
    ASSERT_EQ(batch.results.size(), scenarios.size());
  }

  // Cross-thread determinism: batches must be bit-identical.
  for (std::size_t b = 1; b < batches.size(); ++b) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const auto& t0 = batches[0].results[s].trials;
      const auto& tb = batches[b].results[s].trials;
      ASSERT_EQ(t0.size(), tb.size());
      for (std::size_t t = 0; t < t0.size(); ++t) {
        EXPECT_EQ(t0[t].converged, tb[t].converged);
        EXPECT_EQ(t0[t].rounds, tb[t].rounds);
        EXPECT_EQ(t0[t].winner, tb[t].winner);
        EXPECT_EQ(t0[t].recruitments, tb[t].recruitments);
      }
    }
  }

  // Cross-engine equivalence at equal trial seeds.
  for (const auto& scenario : scenarios) {
    if (scenario.config.engine != EngineKind::kPacked) continue;
    auto scalar_scenario = scenario;
    scalar_scenario.config.engine = EngineKind::kScalar;
    for (std::uint64_t seed : {3ull, 19ull}) {
      const auto packed = scenario.make_simulation(seed)->run();
      const auto scalar = scalar_scenario.make_simulation(seed)->run();
      expect_identical(scalar, packed, scenario.name);
    }
  }
}

TEST(AntPack, FaultedOptimalSweepsAreIdenticalAcrossEnginesAndThreadCounts) {
  // The acceptance gate for the phase-aware engine: optimal (settle on
  // and off) and fault-injected configs, swept over both engines, must be
  // bit-identical per trial at 1, 2, and 8 runner threads.
  auto base = base_config(0);
  base.convergence_tolerance = 0.25;
  base.stability_rounds = 2;
  base.max_rounds = 400;
  auto spec = analysis::SweepSpec("faulted-engine-equivalence")
                  .base(base)
                  .algorithms({"optimal", "optimal+settle", "simple",
                               "quorum"})
                  .crash_fractions({0.0, 0.1})
                  .byzantine_fractions({0.0, 0.05})
                  .engines({EngineKind::kScalar, EngineKind::kPacked});
  const auto scenarios = spec.expand();
  constexpr std::size_t kTrials = 4;
  constexpr std::uint64_t kSeed = 99;

  std::vector<analysis::BatchResult> batches;
  for (unsigned threads : {1u, 2u, 8u}) {
    batches.push_back(analysis::Runner(analysis::RunnerOptions{threads})
                          .run(scenarios, kTrials, kSeed));
  }
  for (std::size_t b = 1; b < batches.size(); ++b) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const auto& t0 = batches[0].results[s].trials;
      const auto& tb = batches[b].results[s].trials;
      ASSERT_EQ(t0.size(), tb.size());
      for (std::size_t t = 0; t < t0.size(); ++t) {
        EXPECT_EQ(t0[t].converged, tb[t].converged) << scenarios[s].name;
        EXPECT_EQ(t0[t].rounds, tb[t].rounds) << scenarios[s].name;
        EXPECT_EQ(t0[t].winner, tb[t].winner) << scenarios[s].name;
        EXPECT_EQ(t0[t].recruitments, tb[t].recruitments) << scenarios[s].name;
      }
    }
  }

  // Cross-engine equivalence at equal trial seeds for every packed cell.
  for (const auto& scenario : scenarios) {
    if (scenario.config.engine != EngineKind::kPacked) continue;
    auto scalar_scenario = scenario;
    scalar_scenario.config.engine = EngineKind::kScalar;
    const auto packed = scenario.make_simulation(19)->run();
    const auto scalar = scalar_scenario.make_simulation(19)->run();
    expect_identical(scalar, packed, scenario.name);
  }
}

TEST(AntPack, CounterPairingSweepsAreIdenticalAcrossEnginesAndThreadCounts) {
  // Acceptance gate for the counter-lottery pairing: counter-paired
  // configs, swept over both engines and fault lanes, must be
  // bit-identical per trial at 1, 2 and 8 runner threads. Both engines
  // route pairing through the same keyed environment call (same pairing
  // seed, same 1-based round, same slot order), so a divergence here means
  // the key derivation drifted between the scalar and packed paths.
  auto base = base_config(0);
  base.pairing = env::PairingKind::kCounter;
  base.convergence_tolerance = 0.25;
  base.stability_rounds = 2;
  base.max_rounds = 400;
  auto spec = analysis::SweepSpec("counter-pairing-engine-equivalence")
                  .base(base)
                  .algorithms({"simple", "quality-aware", "quorum",
                               "optimal", "optimal+settle"})
                  .crash_fractions({0.0, 0.1})
                  .byzantine_fractions({0.0, 0.05})
                  .engines({EngineKind::kScalar, EngineKind::kPacked});
  const auto scenarios = spec.expand();
  constexpr std::size_t kTrials = 4;
  constexpr std::uint64_t kSeed = 4242;

  std::vector<analysis::BatchResult> batches;
  for (unsigned threads : {1u, 2u, 8u}) {
    batches.push_back(analysis::Runner(analysis::RunnerOptions{threads})
                          .run(scenarios, kTrials, kSeed));
  }
  for (std::size_t b = 1; b < batches.size(); ++b) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const auto& t0 = batches[0].results[s].trials;
      const auto& tb = batches[b].results[s].trials;
      ASSERT_EQ(t0.size(), tb.size());
      for (std::size_t t = 0; t < t0.size(); ++t) {
        EXPECT_EQ(t0[t].converged, tb[t].converged) << scenarios[s].name;
        EXPECT_EQ(t0[t].rounds, tb[t].rounds) << scenarios[s].name;
        EXPECT_EQ(t0[t].winner, tb[t].winner) << scenarios[s].name;
        EXPECT_EQ(t0[t].recruitments, tb[t].recruitments) << scenarios[s].name;
      }
    }
  }

  // Cross-engine equivalence at equal trial seeds for every packed cell.
  for (const auto& scenario : scenarios) {
    if (scenario.config.engine != EngineKind::kPacked) continue;
    auto scalar_scenario = scenario;
    scalar_scenario.config.engine = EngineKind::kScalar;
    const auto packed = scenario.make_simulation(19)->run();
    const auto scalar = scalar_scenario.make_simulation(19)->run();
    expect_identical(scalar, packed, scenario.name);
    EXPECT_TRUE(packed.engine_fallback.empty()) << scenario.name;
  }
}

TEST(AntPack, CounterPairingRunsPackedUnderAutoForEveryFaultPlan) {
  // Every built-in pack runs counter-lottery pairing: kAuto must pick the
  // packed engine with no fallback for every packed algorithm x fault
  // plan — crash, Byzantine, both, and partial synchrony.
  auto psync = base_config(21);
  psync.skip_probability = 0.2;
  auto plans = fault_configs(21);
  plans.push_back(base_config(21));  // fault-free
  plans.push_back(psync);
  for (AlgorithmKind kind : kPackedKinds) {
    for (SimulationConfig cfg : plans) {
      cfg.pairing = env::PairingKind::kCounter;
      Simulation sim(cfg, kind);
      EXPECT_TRUE(sim.packed())
          << algorithm_name(kind) << " fell back: " << sim.engine_fallback();
      EXPECT_TRUE(sim.engine_fallback().empty()) << algorithm_name(kind);
      EXPECT_EQ(sim.engine_used(), EngineKind::kPacked) << algorithm_name(kind);
    }
  }
}

TEST(AntPack, PartialSynchronySweepsAreIdenticalAcrossEnginesAndThreadCounts) {
  // The acceptance gate for the packed partial-synchrony lane: the driver
  // pre-draws each round's awake mask in ant order (identical draws to the
  // scalar loop) and the pack idles sleepers through its per-ant phase
  // lanes — swept over both engines, alone and composed with fault lanes,
  // bit-identical per trial at 1, 2, and 8 runner threads.
  auto base = base_config(0);
  base.max_rounds = 600;
  auto spec = analysis::SweepSpec("psync-engine-equivalence")
                  .base(base)
                  .algorithms({"simple", "quality-aware", "quorum",
                               "optimal", "optimal+settle"})
                  .skip_probabilities({0.1, 0.35})
                  .crash_fractions({0.0, 0.1})
                  .engines({EngineKind::kScalar, EngineKind::kPacked});
  const auto scenarios = spec.expand();
  constexpr std::size_t kTrials = 4;
  constexpr std::uint64_t kSeed = 1123;

  std::vector<analysis::BatchResult> batches;
  for (unsigned threads : {1u, 2u, 8u}) {
    batches.push_back(analysis::Runner(analysis::RunnerOptions{threads})
                          .run(scenarios, kTrials, kSeed));
  }
  for (std::size_t b = 1; b < batches.size(); ++b) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const auto& t0 = batches[0].results[s].trials;
      const auto& tb = batches[b].results[s].trials;
      ASSERT_EQ(t0.size(), tb.size());
      for (std::size_t t = 0; t < t0.size(); ++t) {
        EXPECT_EQ(t0[t].converged, tb[t].converged) << scenarios[s].name;
        EXPECT_EQ(t0[t].rounds, tb[t].rounds) << scenarios[s].name;
        EXPECT_EQ(t0[t].winner, tb[t].winner) << scenarios[s].name;
        EXPECT_EQ(t0[t].recruitments, tb[t].recruitments) << scenarios[s].name;
      }
    }
  }

  // Cross-engine equivalence at equal trial seeds for every packed cell,
  // and no fallback: the packs run partial synchrony.
  for (const auto& scenario : scenarios) {
    if (scenario.config.engine != EngineKind::kPacked) continue;
    auto scalar_scenario = scenario;
    scalar_scenario.config.engine = EngineKind::kScalar;
    const auto packed = scenario.make_simulation(19)->run();
    const auto scalar = scalar_scenario.make_simulation(19)->run();
    expect_identical(scalar, packed, scenario.name);
    EXPECT_TRUE(packed.engine_fallback.empty()) << scenario.name;
  }
}

TEST(AntPack, AllSleepersRoundDoesNotStallTheNextUniformRound) {
  // Regression: a round in which EVERY ant sleeps leaves every acting
  // lane zero, and the next all-awake round is colony-uniform again. That
  // round must take its acting lane from its own awake mask: an observe
  // that reads the stale all-zero lane skips every ant and silently
  // freezes the packed engine while the scalar engine keeps running.
  // Tiny colonies at moderate skip make the asleep-then-awake round pair
  // frequent; count noise runs the observe through the perception lanes.
  // Trajectories (not just the aggregate RunResult) pin the per-round
  // census, which a frozen pack cannot reproduce even in runs where
  // neither engine converges.
  for (std::uint32_t n : {1u, 2u, 4u}) {
    auto cfg = base_config(0);
    cfg.num_ants = n;
    cfg.skip_probability = 0.5;
    cfg.noise.count_sigma = 0.3;
    cfg.max_rounds = 500;
    cfg.record_trajectories = true;
    for (std::uint64_t seed : {3ull, 17ull, 91ull}) {
      cfg.seed = seed;
      const std::string label =
          "n=" + std::to_string(n) + "/seed=" + std::to_string(seed);
      const auto scalar =
          run_with_engine(cfg, AlgorithmKind::kSimple, EngineKind::kScalar);
      const auto packed =
          run_with_engine(cfg, AlgorithmKind::kSimple, EngineKind::kPacked);
      expect_identical(scalar, packed, label);
      EXPECT_EQ(scalar.trajectories.counts, packed.trajectories.counts)
          << label;
      EXPECT_EQ(scalar.trajectories.committed, packed.trajectories.committed)
          << label;
    }
  }
}

TEST(AntPack, FaultedAndOptimalConfigsNowRunPacked) {
  // Faults run on pack-level fault lanes — no per-object wrappers needed.
  auto cfg = base_config(2);
  cfg.faults.crash_fraction = 0.1;
  Simulation faulty(cfg, AlgorithmKind::kSimple);
  EXPECT_TRUE(faulty.packed());
  EXPECT_EQ(faulty.engine_used(), EngineKind::kPacked);
  EXPECT_TRUE(faulty.engine_fallback().empty());

  // Algorithm 2 runs packed through the masked (per-ant phase) path.
  Simulation optimal(base_config(2), AlgorithmKind::kOptimal);
  EXPECT_TRUE(optimal.packed());

  // kAuto picks packed when eligible; kScalar overrides.
  Simulation eager(base_config(2), AlgorithmKind::kSimple);
  EXPECT_TRUE(eager.packed());
  auto forced = base_config(2);
  forced.engine = EngineKind::kScalar;
  Simulation reference(forced, AlgorithmKind::kSimple);
  EXPECT_FALSE(reference.packed());
}

TEST(AntPack, FallbackIsLoudOnRunResult) {
  // Partial synchrony runs packed now (the driver pre-draws the awake
  // mask, the pack idles sleepers through its per-ant lanes), so kAuto
  // keeps the fast path with no fallback recorded.
  auto skewed = base_config(2);
  skewed.skip_probability = 0.2;
  Simulation sleepy(skewed, AlgorithmKind::kSimple);
  EXPECT_TRUE(sleepy.packed());
  EXPECT_EQ(sleepy.engine_used(), EngineKind::kPacked);
  EXPECT_TRUE(sleepy.engine_fallback().empty());
  const RunResult result = sleepy.run();
  EXPECT_EQ(result.engine, EngineKind::kPacked);
  EXPECT_TRUE(result.engine_fallback.empty());

  // A caller-built colony is the remaining per-object case: kAuto
  // degrades, but the chosen engine and the reason land on the RunResult
  // so a sweep can assert on them instead of silently running 3x slower.
  auto custom = base_config(2);
  Simulation handmade(
      custom, make_colony(custom.num_ants, AlgorithmKind::kSimple,
                          /*seed=*/7));
  EXPECT_FALSE(handmade.packed());
  EXPECT_EQ(handmade.engine_used(), EngineKind::kScalar);
  EXPECT_NE(handmade.engine_fallback().find("per-object"), std::string::npos);
  const RunResult slow = handmade.run();
  EXPECT_EQ(slow.engine, EngineKind::kScalar);
  EXPECT_EQ(slow.engine_fallback, handmade.engine_fallback());

  // An explicitly requested engine is not a fallback: no reason recorded.
  auto forced = base_config(2);
  forced.engine = EngineKind::kScalar;
  Simulation reference(forced, AlgorithmKind::kSimple);
  EXPECT_TRUE(reference.engine_fallback().empty());
  EXPECT_EQ(reference.run().engine, EngineKind::kScalar);

  // The packed engine reports itself with no fallback.
  Simulation packed(base_config(2), AlgorithmKind::kOptimal);
  const RunResult fast = packed.run();
  EXPECT_EQ(fast.engine, EngineKind::kPacked);
  EXPECT_TRUE(fast.engine_fallback.empty());
}

TEST(AntPack, ExplicitPackedRequestAcceptsEveryExtension) {
  // Faults, optimal, and partial synchrony are all packable now — an
  // explicit kPacked demand is satisfiable across the extension matrix.
  // (An algorithm without a packed implementation still throws; that case
  // lives with the registry tests, which own idle-search.)
  auto cfg = base_config(2);
  cfg.engine = EngineKind::kPacked;
  cfg.skip_probability = 0.3;
  EXPECT_NO_THROW(Simulation(cfg, AlgorithmKind::kSimple));

  auto packable = base_config(2);
  packable.engine = EngineKind::kPacked;
  packable.faults.byzantine_fraction = 0.1;
  packable.convergence_tolerance = 0.3;
  EXPECT_NO_THROW(Simulation(packable, AlgorithmKind::kSimple));
  auto optimal_packed = base_config(2);
  optimal_packed.engine = EngineKind::kPacked;  // demand, don't fall back
  EXPECT_NO_THROW(Simulation(optimal_packed, AlgorithmKind::kOptimal));
}

TEST(AntPack, ExplicitColonyAlwaysRunsScalar) {
  const auto cfg = base_config(4);
  Colony colony = make_colony(cfg.num_ants, AlgorithmKind::kSimple,
                              util::mix_seed(cfg.seed, 0xC0107));
  Simulation sim(cfg, std::move(colony));
  EXPECT_FALSE(sim.packed());
  EXPECT_FALSE(sim.engine_fallback().empty());
  EXPECT_TRUE(sim.run().converged);

  // Even an explicit kPacked request lands scalar here (config.engine is
  // documented as ignored for caller-built colonies) — but never
  // silently: the substitution is recorded as a fallback.
  auto forced = base_config(4);
  forced.engine = EngineKind::kPacked;
  Colony another = make_colony(forced.num_ants, AlgorithmKind::kSimple,
                               util::mix_seed(forced.seed, 0xC0107));
  Simulation substituted(forced, std::move(another));
  EXPECT_FALSE(substituted.packed());
  const RunResult result = substituted.run();
  EXPECT_EQ(result.engine, EngineKind::kScalar);
  EXPECT_FALSE(result.engine_fallback.empty());
}

}  // namespace
}  // namespace hh::core
