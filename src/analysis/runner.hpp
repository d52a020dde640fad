// The batch engine: executes trials x scenarios on a std::thread pool with
// deterministic per-trial seeds, so a sweep's results are bit-identical
// regardless of thread count. Every (scenario, trial) cell's seed is
// derived SplitMix-style from (base_seed, scenario index, trial index) and
// each cell writes its own result slot; aggregation happens serially
// afterwards — thread scheduling can reorder the work but never the data.
//
//   hh::analysis::Runner runner;                     // hardware threads
//   auto batch = runner.run(spec, /*trials=*/100, /*base_seed=*/42);
//   std::cout << batch.tidy_table().render();
#ifndef HH_ANALYSIS_RUNNER_HPP
#define HH_ANALYSIS_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/scenario.hpp"
#include "util/table.hpp"

namespace hh::analysis {

class ResultStore;

struct RunnerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
};

/// THE resolution of the threads=0 default, shared by Runner and the free
/// parallel loops: 0 means std::thread::hardware_concurrency() (at least
/// 1), anything else is taken literally. There is exactly one place this
/// policy lives — a caller passing RunnerOptions{.threads = 0} through any
/// path gets all cores, never a silent serial run.
[[nodiscard]] unsigned resolve_threads(unsigned threads);

/// Deterministic seed for trial `trial` of scenario `scenario` under
/// `base_seed` (stable across thread counts, platforms, and releases).
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t base_seed,
                                       std::size_t scenario,
                                       std::size_t trial);

/// Run body(0..count-1) across resolve_threads(threads) workers (serially
/// when that is 1). Indices are claimed from an atomic counter; the body
/// must write only to its own index's state. The first exception thrown by
/// any body is rethrown on the caller after all workers join.
void parallel_for_index(std::size_t count, unsigned threads,
                        const std::function<void(std::size_t)>& body);

/// Chunked, worker-aware variant: workers claim index blocks from an
/// atomic counter and invoke body(worker, begin, end) per block. A block
/// takes a 1/(2 * threads) share of the indices not yet claimed, at most
/// `chunk` and at least one, so blocks shrink toward single indices as the
/// range drains; the partition depends on (count, threads, chunk) only.
/// `worker` is a dense id in [0, workers) — the hook for per-worker state
/// (arenas, shard writers) that must never be shared across threads.
/// Work-claiming order is nondeterministic; deterministic programs must
/// make body(w, i, j) write only to slots [i, j). Exceptions propagate as
/// in parallel_for_index.
void parallel_for_chunks(
    std::size_t count, unsigned threads, std::size_t chunk,
    const std::function<void(std::size_t worker, std::size_t begin,
                             std::size_t end)>& body);

/// One worker's reusable trial state: holds the last trial's Simulation
/// and, when the engine supports it, reruns the next trial of the same
/// scenario by reset-and-rerun instead of reconstructing — amortizing the
/// per-trial construction cost (env buffers, pack lanes, ~10ns/ant) away
/// across a worker's trials. Falls back to construction transparently
/// (different scenario, or a non-resettable engine), so results are
/// bit-identical either way. Not thread-safe: one arena per worker.
class TrialArena {
 public:
  /// Run one trial of `scenario` under `seed`. The reference must stay
  /// valid and the scenario unmutated while the arena may reuse it
  /// (reuse is keyed on the scenario's address).
  [[nodiscard]] TrialStats run(const Scenario& scenario, std::uint64_t seed);

  /// Trials served by in-place reset vs fresh construction (for benches).
  [[nodiscard]] std::uint64_t resets() const { return resets_; }
  [[nodiscard]] std::uint64_t builds() const { return builds_; }

 private:
  const Scenario* scenario_ = nullptr;
  std::unique_ptr<core::Simulation> simulation_;
  std::uint64_t resets_ = 0;
  std::uint64_t builds_ = 0;
};

/// What run_resumable did: how many cells the sweep had, how many were
/// served from the store, and how many were actually executed.
struct ResumeReport {
  std::size_t cells_total = 0;
  std::size_t cells_cached = 0;
  std::size_t cells_run = 0;
  /// Shard files the store quarantined (renamed to *.hhrs.bad) — bad
  /// headers, not torn tails. Nonzero means cached coverage silently
  /// shrank; the cells recompute, but the operator should look.
  std::size_t shards_quarantined = 0;
};

/// A progress snapshot delivered after each completed work block (and once
/// up front when every cell was cache-served): overall cell accounting
/// plus the scenario the finishing block ended in. Counts are cumulative
/// and cells_done() is nondecreasing across calls; block completion order
/// is nondeterministic, so `scenario` may move backwards.
struct RunProgress {
  std::size_t scenario = 0;          ///< scenario index of the block's last cell
  std::size_t scenarios_total = 0;
  std::size_t cells_total = 0;       ///< scenarios x trials
  std::size_t cells_cached = 0;      ///< served from the store up front
  std::size_t cells_fresh_done = 0;  ///< executed so far, all workers
  std::size_t cells_fresh_total = 0; ///< cells_total - cells_cached

  [[nodiscard]] std::size_t cells_done() const {
    return cells_cached + cells_fresh_done;
  }
  [[nodiscard]] bool finished() const {
    return cells_fresh_done == cells_fresh_total;
  }
};

/// Progress sink for Runner::run/run_resumable. Called under an internal
/// mutex (never concurrently with itself) from worker threads — keep it
/// fast; it is on the batch's critical path.
using ProgressFn = std::function<void(const RunProgress&)>;

/// One scenario's outcome: the per-trial stats (trial order, not
/// completion order) and their aggregate.
struct ScenarioResult {
  Scenario scenario;
  std::vector<TrialStats> trials;
  Aggregate aggregate;
};

/// A full batch: one ScenarioResult per scenario, in scenario order, plus
/// tidy long-format views for tables/CSV.
struct BatchResult {
  std::vector<ScenarioResult> results;
  std::size_t trials_per_scenario = 0;
  std::uint64_t base_seed = 0;

  /// Result whose scenario name is `name`; throws std::out_of_range.
  [[nodiscard]] const ScenarioResult& at(std::string_view name) const;

  /// Long-format header for tidy_table(): scenario, algorithm, axes...,
  /// then the standard aggregate columns. Axis names are the UNION of all
  /// scenarios' axes in first-appearance order — a heterogeneous batch
  /// (scenarios from different sweeps) reports every axis; a scenario
  /// lacking one shows NaN (rows/CSV) or a blank cell (table).
  [[nodiscard]] std::vector<std::string> tidy_header() const;
  /// Header aligned with tidy_rows() (all-numeric columns) — pair THESE
  /// two for write_csv.
  [[nodiscard]] std::vector<std::string> tidy_csv_header() const;
  /// Numeric long-format rows for write_csv: one scenario-index column,
  /// the axis values, then the aggregate columns — aligned with
  /// tidy_csv_header(), NOT with tidy_header() (whose two leading
  /// columns are strings).
  [[nodiscard]] std::vector<std::vector<double>> tidy_rows() const;
  /// Console table of every scenario's aggregate.
  [[nodiscard]] util::Table tidy_table() const;
};

/// The scenario/sweep execution engine.
class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Worker threads this runner will use (resolved, >= 1).
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Standard path: run `trials` simulations of every scenario via the
  /// algorithm registry and aggregate. `progress`, when set, receives a
  /// RunProgress snapshot per completed work block.
  [[nodiscard]] BatchResult run(const std::vector<Scenario>& scenarios,
                                std::size_t trials, std::uint64_t base_seed,
                                const ProgressFn& progress = {}) const;
  [[nodiscard]] BatchResult run(const SweepSpec& spec, std::size_t trials,
                                std::uint64_t base_seed,
                                const ProgressFn& progress = {}) const;

  /// Checkpointed path for long sweeps: every (scenario, trial) cell
  /// already present in `store` — keyed by (scenario_fingerprint, trial,
  /// trial_seed) — is served from disk; only the missing cells run, each
  /// worker appending its fresh results to a private store shard as it
  /// goes (no lock on the hot path). The returned BatchResult is
  /// BIT-IDENTICAL to what run() would produce cold, for ANY mix of
  /// cached and fresh cells and any thread count — interrupt the process
  /// anywhere, rerun the same command, and the aggregate cannot change
  /// (tests/test_resume.cpp pins this at 1/2/8 threads against torn
  /// shards). `report`, when non-null, receives the cached/run split;
  /// `progress` streams per-block snapshots exactly as in run().
  [[nodiscard]] BatchResult run_resumable(
      const std::vector<Scenario>& scenarios, std::size_t trials,
      std::uint64_t base_seed, ResultStore& store,
      ResumeReport* report = nullptr, const ProgressFn& progress = {}) const;
  [[nodiscard]] BatchResult run_resumable(
      const SweepSpec& spec, std::size_t trials, std::uint64_t base_seed,
      ResultStore& store, ResumeReport* report = nullptr,
      const ProgressFn& progress = {}) const;

  /// Generic path: evaluate fn(scenario, seed) for every (scenario, trial)
  /// cell in parallel and return the results in deterministic
  /// [scenario][trial] order. T must be default-constructible and must
  /// not be bool (std::vector<bool> bit-packs, so concurrent per-cell
  /// writes would race — return a small struct or int instead). Use this
  /// for measurements richer than TrialStats (trajectory digests,
  /// environment-level probes, rumor-spread runs, ...).
  template <typename Fn>
  [[nodiscard]] auto map(const std::vector<Scenario>& scenarios,
                         std::size_t trials, std::uint64_t base_seed,
                         Fn&& fn) const {
    using T = std::decay_t<
        std::invoke_result_t<Fn&, const Scenario&, std::uint64_t>>;
    static_assert(!std::is_same_v<T, bool>,
                  "std::vector<bool> bit-packs: concurrent cell writes "
                  "would race; return int or a struct instead");
    std::vector<std::vector<T>> out(scenarios.size());
    for (auto& row : out) row.resize(trials);
    parallel_for_index(
        scenarios.size() * trials, threads_, [&](std::size_t index) {
          const std::size_t s = index / trials;
          const std::size_t t = index % trials;
          out[s][t] = fn(scenarios[s], trial_seed(base_seed, s, t));
        });
    return out;
  }

 private:
  /// Shared executor of run()/run_resumable(): fills the cell matrix from
  /// `store` (when given) and the workers, then aggregates.
  BatchResult run_cells(const std::vector<Scenario>& scenarios,
                        std::size_t trials, std::uint64_t base_seed,
                        ResultStore* store, ResumeReport* report,
                        const ProgressFn& progress) const;

  unsigned threads_;
};

/// The default per-trial measurement used by Runner::run.
[[nodiscard]] TrialStats run_scenario_trial(const Scenario& scenario,
                                            std::uint64_t seed);

}  // namespace hh::analysis

#endif  // HH_ANALYSIS_RUNNER_HPP
