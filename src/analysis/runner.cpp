#include "analysis/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "analysis/result_store.hpp"
#include "util/contracts.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace hh::analysis {

unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads
                      : std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t trial_seed(std::uint64_t base_seed, std::size_t scenario,
                         std::size_t trial) {
  // Two SplitMix rounds keep (scenario, trial) pairs from aliasing the
  // (base_seed, i) pairs of the legacy run_trials derivation.
  return util::mix_seed(util::mix_seed(base_seed, 0x5CE7A210),
                        scenario, trial);
}

void parallel_for_chunks(
    std::size_t count, unsigned threads, std::size_t chunk,
    const std::function<void(std::size_t worker, std::size_t begin,
                             std::size_t end)>& body) {
  if (count == 0) return;
  HH_EXPECTS(chunk >= 1);
  // Blocks shrink as the range drains: the block starting at `begin`
  // takes a 1/(2 * threads) share of the indices left, at most `chunk`
  // and at least one. Early blocks keep claim traffic low; the last ones
  // are single indices, so no worker is left holding a full chunk while
  // the others idle. The partition is a function of (count, threads,
  // chunk) alone, whichever worker claims a block.
  const std::size_t pool_size = resolve_threads(threads);
  const auto block_end = [&](std::size_t begin) {
    return begin +
           std::clamp<std::size_t>((count - begin) / (2 * pool_size), 1, chunk);
  };
  // No block exceeds a 1/(2 * threads) share (or 1), so there are at
  // least min(threads, count) blocks: no worker starts without one.
  const std::size_t workers = std::min(pool_size, count);
  if (workers <= 1) {
    for (std::size_t b = 0, e = 0; b < count; b = e) {
      e = block_end(b);
      body(0, b, e);
    }
    return;
  }
  // `next` is the first unclaimed index; a claim moves it to the end of
  // the block that starts there.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto work = [&](std::size_t worker) {
    // Fail fast: once any cell throws, remaining workers stop claiming
    // (a sweep-wide error like an unknown algorithm name would otherwise
    // pay the full trials x scenarios cost before reporting).
    while (!stop.load(std::memory_order_relaxed)) {
      std::size_t begin = next.load(std::memory_order_relaxed);
      std::size_t end = 0;
      do {
        if (begin >= count) return;
        end = block_end(begin);
      } while (!next.compare_exchange_weak(begin, end,
                                           std::memory_order_relaxed));
      try {
        body(worker, begin, end);
      } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
  } catch (...) {
    // Thread spawn failed partway (resource limit): stop and join what
    // started, then surface the error instead of std::terminate.
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_index(std::size_t count, unsigned threads,
                        const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(count, threads, 1,
                      [&body](std::size_t /*worker*/, std::size_t begin,
                              std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

TrialStats run_scenario_trial(const Scenario& scenario, std::uint64_t seed) {
  return to_trial_stats(scenario.make_simulation(seed)->run());
}

TrialStats TrialArena::run(const Scenario& scenario, std::uint64_t seed) {
  // Reset-and-rerun when the held simulation is for this very scenario
  // object and its engine supports in-place reset; reconstruct otherwise.
  // Both paths are bit-identical (core::Simulation::reset's contract).
  if (simulation_ != nullptr && scenario_ == &scenario &&
      simulation_->reset(seed)) {
    ++resets_;
  } else {
    simulation_ = scenario.make_simulation(seed);
    scenario_ = &scenario;
    ++builds_;
  }
  return to_trial_stats(simulation_->run());
}

Runner::Runner(RunnerOptions options)
    : threads_(resolve_threads(options.threads)) {}

BatchResult Runner::run_cells(const std::vector<Scenario>& scenarios,
                              std::size_t trials, std::uint64_t base_seed,
                              ResultStore* store, ResumeReport* report,
                              const ProgressFn& progress) const {
  const std::size_t cell_count = scenarios.size() * trials;
  std::vector<TrialStats> cells(cell_count);
  // The cells still to execute, in deterministic (scenario-major) order —
  // consecutive entries usually share a scenario, which is what makes the
  // per-worker arena's reset-and-rerun path hit.
  std::vector<std::size_t> todo;
  std::vector<std::uint64_t> fingerprints;
  if (store != nullptr) {
    fingerprints.reserve(scenarios.size());
    for (const Scenario& scenario : scenarios) {
      fingerprints.push_back(scenario_fingerprint(scenario));
    }
    todo.reserve(cell_count);
    for (std::size_t i = 0; i < cell_count; ++i) {
      const std::size_t s = i / trials;
      const std::size_t t = i % trials;
      const TrialKey key{fingerprints[s], trial_seed(base_seed, s, t),
                         static_cast<std::uint32_t>(t)};
      if (const TrialStats* hit = store->find(key)) {
        cells[i] = *hit;
      } else {
        todo.push_back(i);
      }
    }
  } else {
    todo.resize(cell_count);
    std::iota(todo.begin(), todo.end(), std::size_t{0});
  }
  if (report != nullptr) {
    report->cells_total = cell_count;
    report->cells_run = todo.size();
    report->cells_cached = cell_count - todo.size();
    if (store != nullptr) report->shards_quarantined = store->quarantined_files();
  }

  // Progress streaming: one cumulative snapshot per finished block, built
  // under a mutex so the sink never runs concurrently with itself. When
  // every cell was cache-served no block ever runs, so emit one snapshot
  // up front — a fully warm sweep still reports its (all-cached) outcome.
  RunProgress snapshot;
  snapshot.scenarios_total = scenarios.size();
  snapshot.cells_total = cell_count;
  snapshot.cells_cached = cell_count - todo.size();
  snapshot.cells_fresh_total = todo.size();
  std::mutex progress_mutex;
  if (progress && todo.empty() && cell_count > 0) progress(snapshot);

  // Small-n trial batching: claim up to `chunk` cells per block so short
  // trials aren't dominated by claim traffic; parallel_for_chunks shrinks
  // the blocks as the sweep drains, so the tail stays balanced across
  // workers. Each worker owns a TrialArena (simulation reuse) and, when
  // persisting, a private store shard it flushes after every block — the
  // post-kill recovery point. Its shard writer comes from the store's pool
  // and goes back there when `writers` is destroyed, on a cancel's unwind
  // too, so the next run appends to the same shards.
  const std::size_t chunk = std::clamp<std::size_t>(
      todo.size() / (static_cast<std::size_t>(threads_) * 8), 1, 64);
  std::vector<TrialArena> arenas(threads_);
  std::vector<ResultStore::PooledWriter> writers(threads_);
  parallel_for_chunks(
      todo.size(), threads_, chunk,
      [&](std::size_t worker, std::size_t begin, std::size_t end) {
        TrialArena& arena = arenas[worker];
        auto& writer = writers[worker];
        for (std::size_t j = begin; j < end; ++j) {
          const std::size_t cell = todo[j];
          const std::size_t s = cell / trials;
          const std::size_t t = cell % trials;
          const std::uint64_t seed = trial_seed(base_seed, s, t);
          cells[cell] = arena.run(scenarios[s], seed);
          if (store != nullptr) {
            if (writer == nullptr) writer = store->acquire_writer();
            writer->append(TrialKey{fingerprints[s], seed,
                                    static_cast<std::uint32_t>(t)},
                           cells[cell]);
          }
        }
        if (writer != nullptr) writer->flush();
        // Crash point for chaos tests: the block's records are flushed but
        // no progress/job-record update has happened yet — exactly the
        // window a resume must cover.
        (void)util::fault::inject("runner.block.flushed");
        if (progress) {
          const std::lock_guard<std::mutex> lock(progress_mutex);
          snapshot.cells_fresh_done += end - begin;
          snapshot.scenario = todo[end - 1] / trials;
          progress(snapshot);
        }
      });

  BatchResult batch;
  batch.trials_per_scenario = trials;
  batch.base_seed = base_seed;
  batch.results.reserve(scenarios.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    ScenarioResult result;
    result.scenario = scenarios[s];
    result.trials.assign(cells.begin() + static_cast<std::ptrdiff_t>(s * trials),
                         cells.begin() +
                             static_cast<std::ptrdiff_t>((s + 1) * trials));
    result.aggregate = aggregate(result.trials);
    batch.results.push_back(std::move(result));
  }
  return batch;
}

BatchResult Runner::run(const std::vector<Scenario>& scenarios,
                        std::size_t trials, std::uint64_t base_seed,
                        const ProgressFn& progress) const {
  return run_cells(scenarios, trials, base_seed, nullptr, nullptr, progress);
}

BatchResult Runner::run(const SweepSpec& spec, std::size_t trials,
                        std::uint64_t base_seed,
                        const ProgressFn& progress) const {
  return run(spec.expand(), trials, base_seed, progress);
}

BatchResult Runner::run_resumable(const std::vector<Scenario>& scenarios,
                                  std::size_t trials, std::uint64_t base_seed,
                                  ResultStore& store, ResumeReport* report,
                                  const ProgressFn& progress) const {
  return run_cells(scenarios, trials, base_seed, &store, report, progress);
}

BatchResult Runner::run_resumable(const SweepSpec& spec, std::size_t trials,
                                  std::uint64_t base_seed, ResultStore& store,
                                  ResumeReport* report,
                                  const ProgressFn& progress) const {
  return run_resumable(spec.expand(), trials, base_seed, store, report,
                       progress);
}

const ScenarioResult& BatchResult::at(std::string_view name) const {
  for (const ScenarioResult& result : results) {
    if (result.scenario.name == name) return result;
  }
  throw std::out_of_range("no scenario named '" + std::string(name) + "'");
}

namespace {

/// Axis columns for tidy output: the UNION of every scenario's axes in
/// first-appearance order, minus the algorithm axis (already covered by
/// the algorithm string column). Taking only the first scenario's axes
/// used to silently report heterogeneous batches wrong — a scenario's
/// value for an axis it never swept would render as 0.
std::vector<std::string> tidy_axis_names(
    const std::vector<ScenarioResult>& results) {
  std::vector<std::string> names;
  for (const ScenarioResult& result : results) {
    for (const AxisValue& axis : result.scenario.axes) {
      if (axis.axis == "algorithm") continue;
      if (std::find(names.begin(), names.end(), axis.axis) == names.end()) {
        names.push_back(axis.axis);
      }
    }
  }
  return names;
}

/// The engine cell of the tidy table: which engine(s) actually executed
/// a scenario's trials. "cached" = every cell came from a ResultStore
/// (engine unknown by design); a '!' marks scalar fallbacks so a
/// degraded sweep stands out in a column of "packed".
std::string engine_cell(const Aggregate& agg) {
  const std::size_t known = agg.packed_trials + agg.scalar_trials;
  if (known == 0) return agg.trials == 0 ? "-" : "cached";
  std::string cell;
  if (agg.packed_trials > 0) {
    cell = "packed:" + std::to_string(agg.packed_trials);
  }
  if (agg.scalar_trials > 0) {
    if (!cell.empty()) cell += "+";
    cell += "scalar:" + std::to_string(agg.scalar_trials);
    if (!agg.fallback_reasons.empty()) cell += "!";
  }
  return cell;
}

}  // namespace

std::vector<std::string> BatchResult::tidy_header() const {
  std::vector<std::string> header = {"scenario", "algorithm"};
  for (std::string& name : tidy_axis_names(results)) {
    header.push_back(std::move(name));
  }
  header.insert(header.end(), {"trials", "conv%", "rounds(med)",
                               "rounds(mean)", "rounds(p95)", "E[winner q]",
                               "engines"});
  return header;
}

std::vector<std::string> BatchResult::tidy_csv_header() const {
  std::vector<std::string> header = {"scenario_id"};
  for (std::string& name : tidy_axis_names(results)) {
    header.push_back(std::move(name));
  }
  // NO engine columns here, deliberately: tidy CSV is identity-bearing
  // (test_resume pins warm-vs-cold byte equality, and cache-served cells
  // have unknown engines). Engine visibility lives in tidy_table()'s
  // "engines" column and print_engine_summary (report.hpp).
  header.insert(header.end(),
                {"trials", "conv_rate", "rounds_median", "rounds_mean",
                 "rounds_p95", "mean_winner_quality"});
  return header;
}

std::vector<std::vector<double>> BatchResult::tidy_rows() const {
  const auto axes = tidy_axis_names(results);
  std::vector<std::vector<double>> rows;
  rows.reserve(results.size());
  for (std::size_t s = 0; s < results.size(); ++s) {
    const ScenarioResult& result = results[s];
    const Aggregate& agg = result.aggregate;
    std::vector<double> row = {static_cast<double>(s)};
    // Align with tidy_csv_header: the union axes, NaN where this scenario
    // never swept the axis (0 would masquerade as a real coordinate).
    for (const std::string& axis : axes) {
      row.push_back(result.scenario.axis_value(
          axis, std::numeric_limits<double>::quiet_NaN()));
    }
    row.insert(row.end(),
               {static_cast<double>(agg.trials), agg.convergence_rate,
                agg.rounds.median, agg.rounds.mean, agg.rounds.p95,
                agg.mean_winner_quality});
    rows.push_back(std::move(row));
  }
  return rows;
}

util::Table BatchResult::tidy_table() const {
  const auto axes = tidy_axis_names(results);
  util::Table table(tidy_header());
  for (const ScenarioResult& result : results) {
    const Aggregate& agg = result.aggregate;
    table.begin_row()
        .cell(result.scenario.name)
        .cell(result.scenario.algorithm);
    for (const std::string& axis : axes) {
      // Blank cell for an axis this scenario never swept.
      if (result.scenario.has_axis(axis)) {
        table.num(result.scenario.axis_value(axis), 3);
      } else {
        table.cell("");
      }
    }
    table.num(static_cast<std::uint64_t>(agg.trials))
        .num(100.0 * agg.convergence_rate, 1)
        .num(agg.rounds.median, 1)
        .num(agg.rounds.mean, 1)
        .num(agg.rounds.p95, 1)
        .num(agg.mean_winner_quality, 3)
        .cell(engine_cell(agg));
  }
  return table;
}

}  // namespace hh::analysis
