// Tests of the parallel batch engine: determinism across thread counts is
// the core contract — a sweep's results must be a pure function of
// (scenarios, trials, base_seed), never of scheduling.
#include "analysis/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "analysis/result_store.hpp"
#include "test_util.hpp"

namespace hh::analysis {
namespace {

SweepSpec small_sweep() {
  return SweepSpec("det")
      .base(test::small_config(64, 2, 1))
      .algorithms({core::AlgorithmKind::kSimple,
                   core::AlgorithmKind::kOptimal})
      .colony_sizes({32, 64});
}

void expect_identical(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t s = 0; s < a.results.size(); ++s) {
    const auto& ra = a.results[s];
    const auto& rb = b.results[s];
    EXPECT_EQ(ra.scenario.name, rb.scenario.name);
    ASSERT_EQ(ra.trials.size(), rb.trials.size());
    for (std::size_t t = 0; t < ra.trials.size(); ++t) {
      EXPECT_EQ(ra.trials[t].converged, rb.trials[t].converged);
      EXPECT_EQ(ra.trials[t].rounds, rb.trials[t].rounds);
      EXPECT_EQ(ra.trials[t].winner, rb.trials[t].winner);
      EXPECT_EQ(ra.trials[t].winner_quality, rb.trials[t].winner_quality);
      EXPECT_EQ(ra.trials[t].recruitments, rb.trials[t].recruitments);
    }
    EXPECT_EQ(ra.aggregate.converged, rb.aggregate.converged);
    EXPECT_EQ(ra.aggregate.round_samples, rb.aggregate.round_samples);
    EXPECT_EQ(ra.aggregate.rounds.mean, rb.aggregate.rounds.mean);
    EXPECT_EQ(ra.aggregate.mean_winner_quality,
              rb.aggregate.mean_winner_quality);
  }
}

TEST(Runner, BitIdenticalAcrossOneTwoAndEightThreads) {
  const auto scenarios = small_sweep().expand();
  constexpr std::size_t kTrials = 12;
  constexpr std::uint64_t kSeed = 0xBEEF;
  const auto one = Runner(RunnerOptions{1}).run(scenarios, kTrials, kSeed);
  const auto two = Runner(RunnerOptions{2}).run(scenarios, kTrials, kSeed);
  const auto eight = Runner(RunnerOptions{8}).run(scenarios, kTrials, kSeed);
  expect_identical(one, two);
  expect_identical(one, eight);
}

TEST(Runner, DifferentBaseSeedsGiveDifferentTrials) {
  const auto scenarios = small_sweep().expand();
  const Runner runner(RunnerOptions{2});
  const auto a = runner.run(scenarios, 8, 1);
  const auto b = runner.run(scenarios, 8, 2);
  bool any_difference = false;
  for (std::size_t s = 0; s < a.results.size(); ++s) {
    for (std::size_t t = 0; t < 8; ++t) {
      any_difference |= a.results[s].trials[t].rounds !=
                        b.results[s].trials[t].rounds;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Runner, TrialSeedsAreDistinctAcrossCells) {
  std::set<std::uint64_t> seeds;
  for (std::size_t s = 0; s < 32; ++s) {
    for (std::size_t t = 0; t < 32; ++t) {
      seeds.insert(trial_seed(42, s, t));
    }
  }
  EXPECT_EQ(seeds.size(), 32u * 32u);
}

TEST(Runner, MapRunsCustomTrialFunctionsDeterministically) {
  const auto scenarios = SweepSpec("m")
                             .base(test::small_config(32, 2, 1))
                             .colony_sizes({32, 64, 96})
                             .expand();
  const auto fn = [](const Scenario& sc, std::uint64_t seed) {
    return static_cast<double>(sc.config.num_ants) +
           static_cast<double>(seed % 1000) * 1e-3;
  };
  const auto one = Runner(RunnerOptions{1}).map(scenarios, 5, 9, fn);
  const auto four = Runner(RunnerOptions{4}).map(scenarios, 5, 9, fn);
  ASSERT_EQ(one.size(), 3u);
  ASSERT_EQ(one[0].size(), 5u);
  EXPECT_EQ(one, four);
  // Scenario coordinates reach the trial function.
  EXPECT_GE(one[2][0], 96.0);
}

TEST(Runner, RunConsumesSweepSpecsDirectly) {
  const auto batch = Runner(RunnerOptions{2}).run(small_sweep(), 4, 7);
  EXPECT_EQ(batch.results.size(), 4u);
  EXPECT_EQ(batch.trials_per_scenario, 4u);
  for (const auto& result : batch.results) {
    EXPECT_EQ(result.aggregate.trials, 4u);
    // These tiny clean configs always converge.
    EXPECT_EQ(result.aggregate.converged, 4u);
  }
}

TEST(Runner, AtFindsScenariosByName) {
  const auto batch = Runner(RunnerOptions{2}).run(small_sweep(), 2, 7);
  const auto& found = batch.at("det/algorithm=optimal/n=64");
  EXPECT_EQ(found.scenario.algorithm, "optimal");
  EXPECT_EQ(found.scenario.config.num_ants, 64u);
  EXPECT_THROW((void)batch.at("nope"), std::out_of_range);
}

TEST(Runner, TidyOutputsAlignWithHeader) {
  const auto batch = Runner(RunnerOptions{2}).run(small_sweep(), 3, 11);
  const auto header = batch.tidy_header();
  const auto csv_header = batch.tidy_csv_header();
  const auto rows = batch.tidy_rows();
  ASSERT_EQ(rows.size(), batch.results.size());
  // tidy_rows aligns with tidy_csv_header (all numeric), which replaces
  // tidy_header's two leading string columns with one scenario-id column
  // and drops the trailing diagnostic "engines" column (identity-bearing
  // CSV must stay byte-identical between cached and fresh runs).
  EXPECT_EQ(rows.front().size(), csv_header.size());
  EXPECT_EQ(csv_header.size(), header.size() - 2);
  EXPECT_EQ(header.back(), "engines");
  EXPECT_EQ(csv_header[0], "scenario_id");
  EXPECT_EQ(csv_header[1], "n");
  const auto table = batch.tidy_table();
  EXPECT_EQ(table.row_count(), batch.results.size());
  // The algorithm axis is folded into the string column; the first
  // numeric axis column is n.
  EXPECT_EQ(header[1], "algorithm");
  EXPECT_EQ(header[2], "n");
}

TEST(Runner, TidyOutputsUnionAxesAcrossHeterogeneousScenarios) {
  // Regression: axis columns used to come from the FIRST scenario only, so
  // a batch mixing scenarios from different sweeps reported the other
  // sweeps' axes as 0. The union must appear, with NaN marking a scenario
  // that never swept an axis.
  auto a = SweepSpec("size")
               .base(test::small_config(32, 2, 1))
               .colony_sizes({32, 64})
               .expand();
  const auto b = SweepSpec("noise")
                     .base(test::small_config(32, 2, 1))
                     .count_noise({0.0, 0.3})
                     .expand();
  a.insert(a.end(), b.begin(), b.end());
  const auto batch = Runner(RunnerOptions{2}).run(a, 2, 5);

  const auto header = batch.tidy_csv_header();
  const auto n_col = std::find(header.begin(), header.end(), "n");
  const auto sigma_col = std::find(header.begin(), header.end(), "count_sigma");
  ASSERT_NE(n_col, header.end());
  ASSERT_NE(sigma_col, header.end());
  const auto n_index = static_cast<std::size_t>(n_col - header.begin());
  const auto sigma_index = static_cast<std::size_t>(sigma_col - header.begin());

  const auto rows = batch.tidy_rows();
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& row : rows) ASSERT_EQ(row.size(), header.size());
  // The size sweep has real n values but no count_sigma coordinate...
  EXPECT_EQ(rows[0][n_index], 32.0);
  EXPECT_EQ(rows[1][n_index], 64.0);
  EXPECT_TRUE(std::isnan(rows[0][sigma_index]));
  EXPECT_TRUE(std::isnan(rows[1][sigma_index]));
  // ...and the noise sweep vice versa. In particular sigma=0.3 must NOT
  // read as 0 for the size scenarios, nor n as 0 for the noise ones.
  EXPECT_TRUE(std::isnan(rows[2][n_index]));
  EXPECT_TRUE(std::isnan(rows[3][n_index]));
  EXPECT_EQ(rows[2][sigma_index], 0.0);
  EXPECT_EQ(rows[3][sigma_index], 0.3);

  // The console table renders every row without throwing (absent axes are
  // blank cells), and the headers agree on the union too.
  EXPECT_EQ(batch.tidy_table().row_count(), 4u);
  const auto display = batch.tidy_header();
  EXPECT_NE(std::find(display.begin(), display.end(), "count_sigma"),
            display.end());
}

TEST(Runner, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_index(16, 4,
                         [](std::size_t i) {
                           if (i == 7) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

TEST(Runner, ChunkBlocksShrinkAsTheRangeDrainsWhoeverClaimsThem) {
  // A 360-cell sweep on 3 workers (chunk 15, as Runner::run_cells sizes
  // it): the blocks tile the range, none exceeds the chunk, sizes never
  // grow from one block to the next, the tail is single cells, and the
  // partition repeats exactly from run to run.
  const auto blocks_of = [] {
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    parallel_for_chunks(360, 3, 15,
                        [&](std::size_t, std::size_t begin, std::size_t end) {
                          const std::lock_guard<std::mutex> lock(mutex);
                          blocks.emplace_back(begin, end);
                        });
    std::sort(blocks.begin(), blocks.end());
    return blocks;
  };
  const auto blocks = blocks_of();
  ASSERT_FALSE(blocks.empty());
  std::size_t next = 0;
  std::size_t previous = 15;
  for (const auto& [begin, end] : blocks) {
    EXPECT_EQ(begin, next);
    ASSERT_LT(begin, end);
    EXPECT_LE(end - begin, previous);
    previous = end - begin;
    next = end;
  }
  EXPECT_EQ(next, 360u);
  EXPECT_EQ(blocks.front().second - blocks.front().first, 15u);
  EXPECT_EQ(blocks.back().second - blocks.back().first, 1u);
  EXPECT_EQ(blocks.size(), 42u);
  EXPECT_EQ(blocks_of(), blocks);
}

TEST(Runner, ProgressSnapshotsCoverEveryFreshCell) {
  // Cold run: cumulative fresh-done counts must be strictly increasing
  // and end exactly at the cell count, with no cells reported cached.
  const auto cfg = test::small_config(48, 3, 1);
  const std::vector<Scenario> scenarios = {
      Scenario::of("a", core::AlgorithmKind::kSimple, cfg),
      Scenario::of("b", core::AlgorithmKind::kQuorum, cfg)};
  std::vector<RunProgress> seen;
  const auto batch = Runner(RunnerOptions{2}).run(
      scenarios, 5, 0x7E57,
      [&](const RunProgress& p) { seen.push_back(p); });
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i].cells_fresh_done, seen[i - 1].cells_fresh_done);
  }
  const RunProgress& last = seen.back();
  EXPECT_TRUE(last.finished());
  EXPECT_EQ(last.cells_total, 10u);
  EXPECT_EQ(last.cells_cached, 0u);
  EXPECT_EQ(last.cells_fresh_done, 10u);
  EXPECT_EQ(last.scenarios_total, 2u);
  EXPECT_LT(last.scenario, 2u);
  EXPECT_EQ(batch.results[0].aggregate.trials, 5u);
}

TEST(Runner, ResumableRunsOnOneStoreReuseOneShardPerWorker) {
  // The store pools its shard writers between runs: twelve cold runs at
  // four threads leave at most four shards, and a fresh store on the
  // directory serves every cell they wrote, bit for bit.
  const test::TempDir dir("runner-pool");
  const auto scenarios = small_sweep().expand();
  const Runner runner(RunnerOptions{4});
  constexpr std::size_t kTrials = 6;
  constexpr std::uint64_t kRuns = 12;
  std::vector<BatchResult> cold;
  {
    ResultStore store(dir.path);
    for (std::uint64_t run = 0; run < kRuns; ++run) {
      cold.push_back(
          runner.run_resumable(scenarios, kTrials, 0x900D + run, store));
    }
    (void)store.reload();
    EXPECT_LE(store.shard_files(), 4u);
  }
  ResultStore reopened(dir.path);
  EXPECT_EQ(reopened.size(), kRuns * scenarios.size() * kTrials);
  for (std::uint64_t run = 0; run < kRuns; ++run) {
    ResumeReport report;
    const BatchResult warm = runner.run_resumable(
        scenarios, kTrials, 0x900D + run, reopened, &report);
    EXPECT_EQ(report.cells_cached, report.cells_total);
    expect_identical(cold[run], warm);
    EXPECT_EQ(warm.tidy_rows(), cold[run].tidy_rows());
  }
}

TEST(Runner, ProgressOnFullyCachedRunReportsAllCellsUpFront) {
  // Warm run: nothing executes, but the sink still gets one snapshot
  // saying every cell was served from the store.
  const test::TempDir dir("runner-progress");
  const auto cfg = test::small_config(48, 3, 1);
  const std::vector<Scenario> scenarios = {
      Scenario::of("a", core::AlgorithmKind::kSimple, cfg)};
  const Runner runner(RunnerOptions{2});
  {
    ResultStore store(dir.path);
    (void)runner.run_resumable(scenarios, 4, 0xF00D, store);
  }
  ResultStore store(dir.path);
  std::vector<RunProgress> seen;
  (void)runner.run_resumable(scenarios, 4, 0xF00D, store, nullptr,
                             [&](const RunProgress& p) { seen.push_back(p); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].finished());
  EXPECT_EQ(seen[0].cells_total, 4u);
  EXPECT_EQ(seen[0].cells_cached, 4u);
  EXPECT_EQ(seen[0].cells_fresh_total, 0u);
}

}  // namespace
}  // namespace hh::analysis
