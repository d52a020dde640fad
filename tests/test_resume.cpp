// Crash/resume equivalence — the checkpointed sweep engine's contract: a
// sweep interrupted at ANY point and resumed must produce a byte-identical
// tidy CSV to an uninterrupted cold run, at any thread count. Also pins
// the arena-reuse invariant (Simulation::reset == fresh construction) and
// the threads=0 default unification.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/result_store.hpp"
#include "analysis/runner.hpp"
#include "test_util.hpp"
#include "util/csv.hpp"

namespace hh::analysis {
namespace {

namespace fs = std::filesystem;
using test::TempDir;

/// A heterogeneous workload: packed (kAuto) and forced-scalar engine
/// cells of three algorithms, so resume covers both arena paths (the
/// reset-and-rerun pack path and the reconstruct-per-trial scalar path).
std::vector<Scenario> workload() {
  return SweepSpec("resume")
      .base(test::small_config(48, 3, 1))
      .algorithms({core::AlgorithmKind::kSimple, core::AlgorithmKind::kOptimal,
                   core::AlgorithmKind::kQuorum})
      .colony_sizes({32, 48})
      .engines({core::EngineKind::kAuto, core::EngineKind::kScalar})
      .expand();
}

/// The byte-level artifact of record: header + numeric rows as write_csv
/// would emit them.
std::string tidy_csv(const BatchResult& batch) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header(batch.tidy_csv_header());
  for (const auto& row : batch.tidy_rows()) csv.row(row);
  return out.str();
}

void expect_identical(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t s = 0; s < a.results.size(); ++s) {
    ASSERT_EQ(a.results[s].trials.size(), b.results[s].trials.size());
    for (std::size_t t = 0; t < a.results[s].trials.size(); ++t) {
      const TrialStats& ta = a.results[s].trials[t];
      const TrialStats& tb = b.results[s].trials[t];
      EXPECT_EQ(ta.converged, tb.converged) << s << "/" << t;
      EXPECT_EQ(ta.rounds, tb.rounds) << s << "/" << t;
      EXPECT_EQ(ta.winner, tb.winner) << s << "/" << t;
      EXPECT_EQ(ta.winner_quality, tb.winner_quality) << s << "/" << t;
      EXPECT_EQ(ta.recruitments, tb.recruitments) << s << "/" << t;
    }
  }
  EXPECT_EQ(tidy_csv(a), tidy_csv(b));
}

constexpr std::size_t kTrials = 8;
constexpr std::uint64_t kSeed = 0xCAFE;

TEST(Resume, ColdResumableRunMatchesPlainRun) {
  const auto scenarios = workload();
  const Runner runner(RunnerOptions{2});
  const BatchResult plain = runner.run(scenarios, kTrials, kSeed);
  const TempDir dir("cold");
  ResultStore store(dir.path);
  ResumeReport report;
  const BatchResult resumable =
      runner.run_resumable(scenarios, kTrials, kSeed, store, &report);
  expect_identical(plain, resumable);
  EXPECT_EQ(report.cells_total, scenarios.size() * kTrials);
  EXPECT_EQ(report.cells_cached, 0u);
  EXPECT_EQ(report.cells_run, report.cells_total);
}

TEST(Resume, InterruptedStoreResumesBitIdenticalAtOneTwoAndEightThreads) {
  const auto scenarios = workload();
  const BatchResult cold = Runner(RunnerOptions{2}).run(scenarios, kTrials, kSeed);
  const std::string cold_csv = tidy_csv(cold);

  const TempDir dir("interrupt");
  {
    // "Interrupt": a run that only got through part of the sweep (fewer
    // trials) before dying...
    ResultStore store(dir.path);
    (void)Runner(RunnerOptions{2})
        .run_resumable(scenarios, kTrials / 2, kSeed, store);
  }
  // ...and whose last shard was additionally torn mid-record by the kill.
  fs::path last_shard;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (last_shard.empty() || entry.path() > last_shard) {
      last_shard = entry.path();
    }
  }
  ASSERT_FALSE(last_shard.empty());
  fs::resize_file(last_shard, fs::file_size(last_shard) - 17);

  for (const unsigned threads : {1u, 2u, 8u}) {
    // Each thread count resumes from its own copy of the torn store (a
    // resume also REPAIRS the store, so reusing one directory would leave
    // nothing to run for the later iterations).
    const TempDir copy("interrupt-copy");
    fs::copy(dir.path, copy.path);
    ResultStore store(copy.path);
    ResumeReport report;
    const BatchResult resumed = Runner(RunnerOptions{threads})
        .run_resumable(scenarios, kTrials, kSeed, store, &report);
    expect_identical(cold, resumed);
    EXPECT_EQ(tidy_csv(resumed), cold_csv) << "threads=" << threads;
    EXPECT_GT(report.cells_cached, 0u) << "threads=" << threads;
    EXPECT_GT(report.cells_run, 0u) << "threads=" << threads;
  }
}

TEST(Resume, WarmResumeSkipsEveryCompletedCell) {
  const auto scenarios = workload();
  const TempDir dir("warm");
  const Runner runner(RunnerOptions{2});
  BatchResult first;
  {
    ResultStore store(dir.path);
    first = runner.run_resumable(scenarios, kTrials, kSeed, store);
  }
  ResultStore store(dir.path);
  ResumeReport report;
  const BatchResult warm =
      runner.run_resumable(scenarios, kTrials, kSeed, store, &report);
  expect_identical(first, warm);
  EXPECT_EQ(report.cells_run, 0u);
  EXPECT_EQ(report.cells_cached, report.cells_total);
}

TEST(Resume, GrowingTrialCountReusesThePrefix) {
  const auto scenarios = workload();
  const TempDir dir("grow");
  const Runner runner(RunnerOptions{2});
  {
    ResultStore store(dir.path);
    (void)runner.run_resumable(scenarios, kTrials / 2, kSeed, store);
  }
  ResultStore store(dir.path);
  ResumeReport report;
  const BatchResult grown =
      runner.run_resumable(scenarios, kTrials, kSeed, store, &report);
  EXPECT_EQ(report.cells_cached, scenarios.size() * (kTrials / 2));
  expect_identical(Runner(RunnerOptions{1}).run(scenarios, kTrials, kSeed),
                   grown);
}

TEST(Resume, TrialSeedsDoNotCollideAcrossAdjacentCells) {
  // Spot-check the derivation the store keys ride on: adjacent
  // (scenario, trial) pairs — the likeliest aliasing candidates — must
  // yield distinct seeds over a wide window and several base seeds.
  for (const std::uint64_t base : {0ull, 1ull, 42ull, 0xFFFFFFFFFFFFull}) {
    std::set<std::uint64_t> seeds;
    std::size_t expected = 0;
    for (std::size_t s = 0; s < 64; ++s) {
      for (std::size_t t = 0; t < 64; ++t) {
        seeds.insert(trial_seed(base, s, t));
        ++expected;
      }
    }
    EXPECT_EQ(seeds.size(), expected) << "base=" << base;
    // Adjacency in both coordinates, explicitly.
    EXPECT_NE(trial_seed(base, 3, 4), trial_seed(base, 3, 5));
    EXPECT_NE(trial_seed(base, 3, 4), trial_seed(base, 4, 4));
    EXPECT_NE(trial_seed(base, 3, 4), trial_seed(base, 4, 3));
  }
}

// --- the arena-reuse invariant ----------------------------------------------

void expect_same_run(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.winner_quality, b.winner_quality);
  EXPECT_EQ(a.total_recruitments, b.total_recruitments);
  EXPECT_EQ(a.total_tandem_runs, b.total_tandem_runs);
  EXPECT_EQ(a.total_transports, b.total_transports);
}

TEST(ArenaReuse, ResetAndRerunIsBitIdenticalToFreshConstruction) {
  for (const core::AlgorithmKind kind :
       {core::AlgorithmKind::kSimple, core::AlgorithmKind::kRateBoosted,
        core::AlgorithmKind::kQualityAware, core::AlgorithmKind::kUniformRecruit,
        core::AlgorithmKind::kQuorum, core::AlgorithmKind::kOptimal,
        core::AlgorithmKind::kOptimalSettle}) {
    for (const std::uint64_t seed_b : {7ull, 1234567ull}) {
      core::SimulationConfig cfg = test::small_config(96, 4, 2, /*seed=*/11);
      core::Simulation reused(cfg, kind);
      (void)reused.run();  // dirty every lane with trial A
      ASSERT_TRUE(reused.reset(seed_b));
      const core::RunResult warm = reused.run();

      cfg.seed = seed_b;
      core::Simulation fresh(cfg, kind);
      expect_same_run(fresh.run(), warm);
    }
  }
}

TEST(ArenaReuse, ResetMatchesFreshUnderNoiseAndBothPairings) {
  core::SimulationConfig cfg = test::small_config(64, 4, 2, /*seed=*/3);
  cfg.noise.count_sigma = 0.2;  // the masked round's perception pass
  for (const env::PairingKind pairing :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal}) {
    cfg.pairing = pairing;
    cfg.seed = 3;
    core::Simulation reused(cfg, core::AlgorithmKind::kSimple);
    (void)reused.run();
    ASSERT_TRUE(reused.reset(99));
    const core::RunResult warm = reused.run();
    cfg.seed = 99;
    core::Simulation fresh(cfg, core::AlgorithmKind::kSimple);
    expect_same_run(fresh.run(), warm);
  }
}

TEST(ArenaReuse, ResetMatchesFreshUnderFaultPlans) {
  // The fault plan is a function of the master seed: a reset must
  // resample it (new crash rounds, new Byzantine positions) exactly as a
  // fresh construction would. A reset right after round 1 must also
  // re-plan round 1: the lanes the pack planned for the old trial's
  // round 2 hold the old plan's fault rows. Partial synchrony, with and
  // without the fault plan, adds the sleep rows and the acting lanes the
  // old trial left behind.
  struct Case {
    bool faulted;
    double skip;
  };
  for (const Case c : {Case{true, 0.0}, Case{true, 0.2}, Case{false, 0.2}}) {
    core::SimulationConfig cfg = test::small_config(96, 4, 2, /*seed=*/21);
    if (c.faulted) {
      cfg.faults.crash_fraction = 0.1;
      cfg.faults.byzantine_fraction = 0.05;
    }
    cfg.skip_probability = c.skip;
    cfg.convergence_tolerance = 0.25;
    cfg.stability_rounds = 2;
    cfg.max_rounds = 400;
    for (const core::AlgorithmKind kind :
         {core::AlgorithmKind::kSimple, core::AlgorithmKind::kQuorum,
          core::AlgorithmKind::kOptimal,
          core::AlgorithmKind::kOptimalSettle}) {
      for (const bool after_one_round : {false, true}) {
        SCOPED_TRACE(std::string(core::algorithm_name(kind)) +
                     (c.faulted ? " faulted" : " fault-free") + " skip " +
                     std::to_string(c.skip) +
                     (after_one_round ? " after one round" : " after a run"));
        core::Simulation reused(cfg, kind);
        ASSERT_TRUE(reused.packed());
        if (after_one_round) {
          (void)reused.step();
        } else {
          (void)reused.run();
        }
        ASSERT_TRUE(reused.reset(77));
        const core::RunResult warm = reused.run();
        core::SimulationConfig fresh_cfg = cfg;
        fresh_cfg.seed = 77;
        core::Simulation fresh(fresh_cfg, kind);
        expect_same_run(fresh.run(), warm);
      }
    }
  }
}

TEST(ArenaReuse, ScalarEnginesDeclineResetAndArenaFallsBack) {
  core::SimulationConfig cfg = test::small_config(48, 3, 1);
  cfg.engine = core::EngineKind::kScalar;  // force the per-object path
  core::Simulation scalar(cfg, core::AlgorithmKind::kOptimal);
  EXPECT_FALSE(scalar.reset(5));  // per-object engine: no reset hook

  const Scenario scenario =
      Scenario::of("opt", core::AlgorithmKind::kOptimal, cfg);
  TrialArena arena;
  for (std::size_t t = 0; t < 4; ++t) {
    const std::uint64_t seed = trial_seed(1, 0, t);
    const TrialStats via_arena = arena.run(scenario, seed);
    const TrialStats direct = run_scenario_trial(scenario, seed);
    EXPECT_EQ(via_arena.rounds, direct.rounds);
    EXPECT_EQ(via_arena.winner, direct.winner);
  }
  EXPECT_EQ(arena.builds(), 4u);  // rebuilt every trial
  EXPECT_EQ(arena.resets(), 0u);
}

TEST(ArenaReuse, PackedScenarioResetsAfterFirstBuild) {
  const Scenario scenario = Scenario::of(
      "simple", core::AlgorithmKind::kSimple, test::small_config(48, 3, 1));
  TrialArena arena;
  for (std::size_t t = 0; t < 6; ++t) {
    (void)arena.run(scenario, trial_seed(1, 0, t));
  }
  EXPECT_EQ(arena.builds(), 1u);
  EXPECT_EQ(arena.resets(), 5u);
}

// --- threads=0 default unification ------------------------------------------

TEST(Threads, ZeroMeansAllCoresEverywhere) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(0),
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(resolve_threads(3), 3u);
  // The Runner resolved its default the same way all along...
  EXPECT_EQ(Runner(RunnerOptions{0}).threads(), resolve_threads(0));
  // ...and the free loops now agree: a threads=0 parallel_for engages a
  // real pool, not a silent serial run.
  if (std::thread::hardware_concurrency() >= 2) {
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallel_for_index(4, 0, [&](std::size_t) {
      // Each body holds (bounded) until a SECOND worker thread has shown
      // up, so one worker cannot race through the whole range before the
      // others start — making the multi-thread observation deterministic.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      std::size_t seen = 0;
      do {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          ids.insert(std::this_thread::get_id());
          seen = ids.size();
        }
        if (seen >= 2) break;
        std::this_thread::yield();
      } while (std::chrono::steady_clock::now() < deadline);
    });
    EXPECT_GT(ids.size(), 1u);
  }
}

TEST(Threads, WorkerIdsAreDenseAndWithinBounds) {
  std::mutex mutex;
  std::set<std::size_t> workers;
  parallel_for_chunks(64, 4, 8, [&](std::size_t worker, std::size_t begin,
                                    std::size_t end) {
    EXPECT_LT(worker, 4u);
    EXPECT_LT(begin, end);
    EXPECT_LE(end, 64u);
    const std::lock_guard<std::mutex> lock(mutex);
    workers.insert(worker);
  });
  EXPECT_GE(workers.size(), 1u);
}

}  // namespace
}  // namespace hh::analysis
