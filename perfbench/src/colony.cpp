// The serial colony workload: one thread, one Simulation reused via
// reset(seed) the way TrialArena reuses it, one trial at a time.
//
// Untraced: trials run back to back for --seconds of trial time, with a
// timed set-up (a fresh build) every kSetupEvery trials; every trial is
// then checked outside the timed window. Traced: every trial seed runs twice in
// a row, untraced and then through traced_trial(), so the exact counts of
// the twins must agree and their summed time ratio is the tracing
// overhead.
#include <memory>

#include "core_layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Trials between two set-up samples of an untraced run.
constexpr std::size_t kSetupEvery = 8;
/// Builds timed by a traced run for core.ctor_ns_per_ant.
constexpr int kTracedBuilds = 31;

struct Trial {
  std::uint64_t seed = 0;
  double ms = 0.0;
  Outcome outcome;
};

hh::analysis::Scenario make_scenario(const ColonySpec& spec) {
  hh::core::SimulationConfig cfg;
  cfg.num_ants = spec.n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(spec.k, spec.k / 2);
  cfg.pairing = spec.pairing;
  hh::analysis::Scenario scenario;
  scenario.name = spec.name;
  scenario.algorithm = spec.algorithm;
  scenario.config = cfg;
  return scenario;
}

/// One untraced trial, appended to `trials`.
void run_trial(std::unique_ptr<hh::core::Simulation>& sim,
               const hh::analysis::Scenario& scenario, std::uint64_t seed,
               std::vector<Trial>& trials) {
  Trial trial;
  trial.seed = seed;
  const auto t0 = Clock::now();
  if (!sim->reset(seed)) sim = scenario.make_simulation(seed);
  trial.outcome = outcome_of(sim->run());
  trial.ms = ms_since(t0);
  trials.push_back(trial);
}

/// Rebuild `sim` from scratch, after handing freed pages back; returns the
/// build time in seconds.
double timed_build(std::unique_ptr<hh::core::Simulation>& sim,
                   const hh::analysis::Scenario& scenario, std::uint64_t seed) {
  sim.reset();
  release_free_memory();
  const auto t0 = Clock::now();
  sim = scenario.make_simulation(seed);
  return seconds_between(t0, Clock::now());
}

/// Output checks, run outside every timed window.
void check_trials(const ColonySpec& spec, const hh::analysis::Scenario& scenario,
                  const std::vector<Trial>& trials, Report& report) {
  hh::analysis::Scenario scalar = scenario;
  scalar.config.engine = hh::core::EngineKind::kScalar;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const Trial& trial = trials[t];
    bool ok = trial.outcome.engine == hh::core::EngineKind::kPacked;
    if (t % spec.scalar_check_every == 0) {
      Outcome reference = outcome_of(scalar.make_simulation(trial.seed)->run());
      reference.engine = hh::core::EngineKind::kPacked;
      ok = ok && reference == trial.outcome;
    }
    report.check(ok, std::string(spec.name) + " trial " + std::to_string(t) +
                         " seed " + std::to_string(trial.seed));
  }
}

std::vector<double> trial_ms(const std::vector<Trial>& trials) {
  std::vector<double> ms;
  for (const Trial& t : trials) ms.push_back(t.ms);
  return ms;
}

double total_ms(const std::vector<Trial>& trials) {
  double sum = 0.0;
  for (const Trial& t : trials) sum += t.ms;
  return sum;
}

}  // namespace

Report run_colony(const Options& opt, const ColonySpec& spec) {
  Report report;
  const hh::analysis::Scenario scenario = make_scenario(spec);
  const std::uint64_t first_seed = hh::analysis::trial_seed(opt.seed, 0, 0);
  std::printf("workload %s: %s n=%u k=%u pairing=%s seed=%llu\n", spec.name,
              spec.algorithm, spec.n, spec.k,
              std::string(hh::env::pairing_name(spec.pairing)).c_str(),
              static_cast<unsigned long long>(opt.seed));
  std::unique_ptr<hh::core::Simulation> sim;

  if (!opt.trace) {
    // Set-up is the colony construction. It is sampled before the first
    // trial and again every kSetupEvery trials, outside the timed trials,
    // so the samples see the same host conditions the trials do.
    std::vector<double> setup;
    std::vector<Trial> trials;
    double window = 0.0;  // summed trial time, s
    for (std::size_t t = 0; window < opt.seconds; ++t) {
      if (t % kSetupEvery == 0) setup.push_back(timed_build(sim, scenario, first_seed));
      run_trial(sim, scenario, hh::analysis::trial_seed(opt.seed, 0, t), trials);
      window += trials.back().ms * 1e-3;
    }
    sim.reset();
    check_trials(spec, scenario, trials, report);
    const std::vector<double> ms = trial_ms(trials);
    double rounds = 0.0;
    for (const Trial& t : trials) rounds += t.outcome.rounds_executed;
    std::printf("  trials %zu in %.3f s; trial p50 %.3f ms p90 %.3f ms\n",
                trials.size(), window, median(ms), quantile(ms, 0.9));
    print_setup(setup);
    report.add("trials_per_s", static_cast<double>(trials.size()) / window,
               "trials/s");
    report.add("ant_rounds_per_s", rounds * spec.n / window, "1/s");
    report.add("p50_ms", median(ms), "ms");
    report.add("setup_s", setup_statistic(setup), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  Tracer tracer;
  CoreTally tally;
  for (int r = 0; r < kTracedBuilds; ++r) {
    sim.reset();
    release_free_memory();
    sim = traced_build(scenario, first_seed, tracer, kNoParent, r, tally);
  }
  // Each seed runs untraced, then traced: the untraced twin is the count
  // reference and, paired trial by trial, the overhead baseline.
  std::vector<Trial> plain, traced;
  const auto start = Clock::now();
  double traced_wall_ms = 0.0;
  for (std::size_t t = 0; seconds_between(start, Clock::now()) < opt.seconds; ++t) {
    run_trial(sim, scenario, hh::analysis::trial_seed(opt.seed, 0, t), plain);
    Trial trial;
    trial.seed = plain.back().seed;
    const auto t0 = Clock::now();
    const std::int32_t root = tracer.begin("trial", kNoParent, t);
    trial.outcome = traced_trial(sim, scenario, trial.seed, tracer, root, t, tally);
    tracer.end(root);
    trial.ms = ms_since(t0);
    traced_wall_ms += trial.ms;
    traced.push_back(trial);
  }
  sim.reset();

  check_trials(spec, scenario, plain, report);
  bool counts_match = plain.size() == traced.size();
  for (std::size_t t = 0; counts_match && t < plain.size(); ++t) {
    counts_match = plain[t].outcome == traced[t].outcome;
  }
  report.check(counts_match, "traced trials repeat the untraced outcomes");

  std::printf("traced layer table (%zu trials, each also run untraced):\n",
              traced.size());
  print_layer_table(tracer, traced_wall_ms);
  add_core_env_metrics(tally, {spec.n, spec.k, spec.pairing, opt.seed}, report);
  // Both twins' latencies: the untraced half alone rarely reaches the 1000
  // trials a p99 needs, and tracing costs about 1%.
  std::vector<double> all_ms = trial_ms(plain);
  for (const Trial& t : traced) all_ms.push_back(t.ms);
  report.add("core.trial_p99_ms", p99_or_zero(all_ms), "ms");
  report.add("trace.overhead_frac", ratio(total_ms(traced), total_ms(plain)) - 1.0,
             "fraction");
  report.add("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  const std::string path = opt.work_dir + "/trace-" + spec.name + ".tsv";
  if (tracer.write_tsv(path)) std::printf("spans written to %s\n", path.c_str());
  return report;
}

}  // namespace perfbench
