#include "core_layers.hpp"

#include <algorithm>

namespace perfbench {

Outcome outcome_of(const hh::core::RunResult& r) {
  return {r.converged,         r.rounds,           r.rounds_executed,
          r.winner,            r.winner_quality,   r.total_recruitments,
          r.total_tandem_runs, r.total_transports, r.engine};
}

namespace {

double span_ns(const Tracer& tracer, std::int32_t span) {
  const Span& s = tracer.spans()[static_cast<std::size_t>(span)];
  return static_cast<double>(s.end_ns - s.start_ns);
}

}  // namespace

std::unique_ptr<hh::core::Simulation> traced_build(
    const hh::analysis::Scenario& scenario, std::uint64_t seed, Tracer& tracer,
    std::int32_t parent, std::uint64_t key, CoreTally& tally) {
  const std::int32_t span = tracer.begin("core.ctor", parent, key);
  auto sim = scenario.make_simulation(seed);
  tracer.end(span);
  tally.ctor_ns += span_ns(tracer, span);
  tally.ctor_ants += scenario.config.num_ants;
  return sim;
}

Outcome traced_trial(std::unique_ptr<hh::core::Simulation>& sim,
                     const hh::analysis::Scenario& scenario, std::uint64_t seed,
                     Tracer& tracer, std::int32_t parent, std::uint64_t key,
                     CoreTally& tally) {
  const double n = scenario.config.num_ants;
  const std::int32_t reset_span = tracer.begin("core.reset", parent, key);
  const bool reset = sim->reset(seed);
  tracer.end(reset_span);
  if (reset) {
    tally.reset_ns += span_ns(tracer, reset_span);
    tally.reset_ants += n;
  } else {
    sim = traced_build(scenario, seed, tracer, parent, key, tally);
  }
  while (!sim->converged() && sim->round() < sim->max_rounds()) {
    const bool steady = sim->round() > 0;
    const std::int32_t span = tracer.begin("core.step", parent, key);
    const std::uint64_t before = allocations();
    sim->step();
    const std::uint64_t allocs = allocations() - before;
    tracer.end(span);
    tally.step_ns += span_ns(tracer, span);
    const hh::env::RoundStats& st = sim->world().last_round_stats();
    tally.successes += st.successful_recruitments;
    const double recruits = st.active_recruits + st.passive_recruits;
    const RoundShape shape = st.searches == n   ? RoundShape::kAllSearch
                             : st.gos == n      ? RoundShape::kAllGo
                             : recruits == n    ? RoundShape::kAllRecruit
                                                : RoundShape::kMixed;
    ShapeTally& sh = tally.shapes[static_cast<int>(shape)];
    sh.rounds += 1;
    sh.ant_rounds += n;
    sh.searches += st.searches;
    sh.gos += st.gos;
    sh.recruits += recruits;
    sh.active += st.active_recruits;
    tally.steps += 1;
    tally.ant_rounds += n;
    if (steady) {
      tally.steady_steps += 1;
      tally.steady_allocs += static_cast<double>(allocs);
    }
  }
  const Outcome outcome = outcome_of(sim->run());
  tally.trials += 1;
  tally.packed_trials += outcome.engine == hh::core::EngineKind::kPacked ? 1 : 0;
  return outcome;
}

void add_core_env_metrics(const CoreTally& tally, const ProbeShape& shape,
                          Report& report) {
  ShapeTally all;
  for (const ShapeTally& sh : tally.shapes) {
    all.searches += sh.searches;
    all.gos += sh.gos;
    all.recruits += sh.recruits;
    all.active += sh.active;
  }

  const double n = shape.n;
  double env_ns = 0, pairing_ns = 0, slots = 0;  // summed over traced rounds
  double env_allocs = 0, pairing_allocs = 0;
  for (int i = 0; i < kRoundShapes; ++i) {
    const ShapeTally& sh = tally.shapes[i];
    if (sh.rounds == 0) continue;
    const OpMix shape_mix{ratio(sh.searches, sh.ant_rounds), ratio(sh.gos, sh.ant_rounds),
                          ratio(sh.recruits, sh.ant_rounds), ratio(sh.active, sh.recruits)};
    std::uint32_t shape_slots = 0;
    const ProbeResult round =
        probe_env_round(shape.pairing, shape.n, shape.k, static_cast<RoundShape>(i),
                        shape_mix, shape.seed, shape_slots);
    const ProbeResult pairing =
        shape_slots > 0
            ? probe_pairing(shape.pairing, shape_slots, shape_mix.active, shape.seed)
            : ProbeResult{};
    std::printf("  %-11s rounds %5.1f%%: round %.2f ns/ant, pairing %.2f ns/slot "
                "over %u slots\n",
                shape_name(static_cast<RoundShape>(i)), 100 * ratio(sh.rounds, tally.steps),
                round.ns_per_call / n, ratio(pairing.ns_per_call, shape_slots), shape_slots);
    env_ns += sh.rounds * (round.ns_per_call - pairing.ns_per_call);
    pairing_ns += sh.rounds * pairing.ns_per_call;
    slots += sh.rounds * shape_slots;
    env_allocs = std::max(env_allocs, round.allocs_per_call);
    pairing_allocs = std::max(pairing_allocs, pairing.allocs_per_call);
  }
  const double probe_ant_rounds = tally.steps * n;
  const double env_per = ratio(env_ns, probe_ant_rounds);
  const double pairing_per = ratio(pairing_ns, probe_ant_rounds);
  const double step_ns = ratio(tally.step_ns, tally.ant_rounds);
  const double rest_ns = step_ns - env_per - pairing_per;
  std::printf(
      "layer split per ant-round (probes at n=%u, %s): step %.2f ns = env "
      "%.2f (%.0f%%) + pairing %.2f (%.0f%%) + unaccounted %.2f (%.0f%%)\n",
      shape.n, std::string(hh::env::pairing_name(shape.pairing)).c_str(),
      step_ns, env_per, 100 * ratio(env_per, step_ns), pairing_per,
      100 * ratio(pairing_per, step_ns), rest_ns, 100 * ratio(rest_ns, step_ns));
  std::printf(
      "  gprof reference (packed optimal, n=4096, k=8): permutation env ~42%%, "
      "pairing ~41%%, pack kernels ~12%%; counter-lottery pair_active ~60%%\n");

  report.add("core.ctor_ns_per_ant", ratio(tally.ctor_ns, tally.ctor_ants), "ns");
  report.add("core.reset_ns_per_ant", ratio(tally.reset_ns, tally.reset_ants), "ns");
  report.add("core.step_ns_per_ant_round", step_ns, "ns");
  report.add("core.rounds_per_trial", ratio(tally.steps, tally.trials), "count");
  report.add("core.packed_trial_frac", ratio(tally.packed_trials, tally.trials),
             "fraction");
  report.add("core.allocs_per_round",
             ratio(tally.steady_allocs, tally.steady_steps), "count");
  report.add("env.recruit_slots_per_round", ratio(all.recruits, tally.steps), "count");
  report.add("env.pairing_yield", ratio(tally.successes, all.active), "fraction");
  report.add("env.search_frac", ratio(all.searches, tally.ant_rounds), "fraction");
  report.add("env.go_frac", ratio(all.gos, tally.ant_rounds), "fraction");
  report.add("env.recruit_frac", ratio(all.recruits, tally.ant_rounds), "fraction");
  report.add("env.pairing_ns_per_slot", ratio(pairing_ns, slots), "ns");
  report.add("env.pairing_allocs_per_call", pairing_allocs, "count");
  report.add("env.round_ns_per_ant", env_per, "ns");
  report.add("env.round_allocs_per_call", env_allocs, "count");
  report.add("env.unaccounted_ns_per_ant_round", rest_ns, "ns");
}

}  // namespace perfbench
