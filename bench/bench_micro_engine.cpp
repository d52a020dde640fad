// E17 — the hot-path benchmark suite (google-benchmark): steady-state cost
// of the pairing process, of an environment round, of the packed vs
// per-object engine round, and end-to-end trial throughput per engine.
//
// Emits bench_out/BENCH_hotpath.json (google-benchmark JSON) so the perf
// trajectory of the hot path is machine-readable across PRs. Headline
// numbers to watch:
//   * BM_TrialThroughput_simple_{scalar,packed}/4096 — the packed engine
//     must sustain >= 3x the per-object trial throughput (the
//     BM_PackedSpeedup_* entries report the ratio directly as a counter);
//   * allocs_per_round == 0 on every steady-state round benchmark — the
//     zero-allocation invariant of Environment::step();
//   * BM_PackedBuild's bytes_per_ant and page_faults_per_build — the
//     packed engine's set-up footprint (DESIGN.md §3).
//
// CI runs this with a small --benchmark_min_time; run without flags for
// full precision.
#include <benchmark/benchmark.h>
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "anthill.hpp"
// Counting allocator hooks (replaces global new/delete for this binary):
// the allocs_per_round counters measure the zero-allocation invariant,
// not just speed.
#include "counting_alloc.hpp"

namespace {

using hh::testing::allocation_count;

// ---------------------------------------------------------------------------
// Pairing process, steady state (scratch reused across rounds).

void BM_Pairing(benchmark::State& state, hh::env::PairingKind kind) {
  const auto m = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> active(m);
  for (std::size_t i = 0; i < m; ++i) active[i] = i % 2 == 0 ? 1 : 0;
  const auto model = hh::env::make_pairing_model(kind);
  hh::util::Rng rng(1);
  hh::env::PairingScratch scratch;
  scratch.reserve(m);
  model->pair_active(active, rng, scratch);  // warm the workspace
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocation_count();
    model->pair_active(active, rng, scratch);
    allocs += allocation_count() - before;
    benchmark::DoNotOptimize(scratch.recruited_by.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_Pairing, permutation, hh::env::PairingKind::kPermutation)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_Pairing, uniform_proposal,
                  hh::env::PairingKind::kUniformProposal)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_Pairing, counter_lottery, hh::env::PairingKind::kCounter)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);

// The engine-facing pairing round: the keyed SoA call every recruit-bearing
// round makes (counter models draw from per-slot streams keyed on
// (seed, round, slot); sequential models from the shared rng). This is the
// per-round cost the packed optimal engine pays from round 2 on, isolated
// from the rest of the environment. allocs_per_round must be 0 for ALL
// models — tools/bench_diff --require-zero-allocs gates these rows.
void pairing_rounds(benchmark::State& state, hh::env::PairingKind kind,
                    const std::vector<std::uint8_t>& active) {
  const auto model = hh::env::make_pairing_model(kind);
  hh::util::Rng rng(1);
  hh::env::PairingScratch scratch;
  scratch.reserve(active.size());
  std::uint32_t round = 0;
  model->pair_active(active, hh::env::PairingCtx{rng, 0xABCD, ++round},
                     scratch);  // warm the workspace
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocation_count();
    model->pair_active(active, hh::env::PairingCtx{rng, 0xABCD, ++round},
                       scratch);
    allocs += allocation_count() - before;
    benchmark::DoNotOptimize(scratch.recruited_by.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(active.size()));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}

void BM_PairingRound(benchmark::State& state, hh::env::PairingKind kind) {
  const auto m = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> active(m);
  for (std::size_t i = 0; i < m; ++i) active[i] = i % 2 == 0 ? 1 : 0;
  pairing_rounds(state, kind, active);
}
BENCHMARK_CAPTURE(BM_PairingRound, permutation,
                  hh::env::PairingKind::kPermutation)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);
BENCHMARK_CAPTURE(BM_PairingRound, uniform_proposal,
                  hh::env::PairingKind::kUniformProposal)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);
BENCHMARK_CAPTURE(BM_PairingRound, counter_lottery,
                  hh::env::PairingKind::kCounter)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

// The same round over random active flags at a fixed share (second arg,
// percent). BM_PairingRound's alternating flags are the easiest pattern
// for a branch predictor; a real round's flags are irregular, and the
// share moves the cost of both models' compaction and of Algorithm 1's
// draw count.
void BM_PairingRoundDensity(benchmark::State& state,
                            hh::env::PairingKind kind) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto percent = static_cast<std::uint64_t>(state.range(1));
  hh::util::Rng shape(m + percent);
  std::vector<std::uint8_t> active(m);
  for (auto& b : active) b = shape.uniform_u64(100) < percent ? 1 : 0;
  pairing_rounds(state, kind, active);
}
BENCHMARK_CAPTURE(BM_PairingRoundDensity, permutation,
                  hh::env::PairingKind::kPermutation)
    ->ArgsProduct({{1024, 4096}, {10, 50, 90, 100}});
BENCHMARK_CAPTURE(BM_PairingRoundDensity, counter_lottery,
                  hh::env::PairingKind::kCounter)
    ->ArgsProduct({{1024, 4096}, {10, 50, 90, 100}});

void BM_RandomPermutationInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> perm;
  perm.reserve(n);
  hh::util::Rng rng(1);
  for (auto _ : state) {
    hh::util::random_permutation_into(perm, n, rng);
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RandomPermutationInto)->RangeMultiplier(8)->Range(64, 1 << 16);

// ---------------------------------------------------------------------------
// One environment round, steady state.
//
// Earlier versions of this benchmark measured a drifting distribution: the
// environment mutated across iterations (knowledge spread, counts moved),
// so late iterations timed different work than early ones. The fixture now
// runs warm-up rounds first: with a fixed all-recruit action vector the
// per-round state is stationary once the knowledge table reaches its fixed
// point (locations reset to the home nest every round, counts repeat, and
// knowledge growth is monotone and bounded), so every timed iteration
// draws from the same distribution.

void BM_EnvironmentRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::env::EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = {1.0, 1.0, 0.0, 0.0};
  cfg.seed = 3;
  hh::env::Environment environment(std::move(cfg));
  std::vector<hh::env::Action> search(n, hh::env::Action::search());
  environment.step(search);
  // Legalize: each ant advertises the nest it found in round 1 (go/recruit
  // require knowledge of the target).
  std::vector<hh::env::Action> recruit(n);
  for (hh::env::AntId a = 0; a < n; ++a) {
    recruit[a] =
        hh::env::Action::recruit(a % 2 == 0, environment.location(a));
  }
  for (int warmup = 0; warmup < 64; ++warmup) environment.step(recruit);

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocation_count();
    benchmark::DoNotOptimize(environment.step(recruit));
    allocs += allocation_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_EnvironmentRound)->RangeMultiplier(8)->Range(256, 1 << 17);

// ---------------------------------------------------------------------------
// The fused counter round alone: step_masked_recruit_quiet under
// counter-lottery pairing (classification + census + request packing, the
// keyed lottery, and the matched-pairs bookkeeping) — the env half of the
// packed optimal engine's steady-state round, without the pack kernels.
// The op mix imitates optimal's steady state, about 78% recruit and 22% go
// per round with most recruiters active, drawn per ant so the mix is as
// irregular as the R1-R4 block positions make it; four such mixes rotate
// so no round repeats its predecessor's. Targets are legalised by an
// all-search first round, as in BM_EnvironmentRound (validation is off,
// as on the packed engine, but the calls stay legal). The world holds the
// packed engine's lane set (WorldLanes::kMasked: no knowledge table, no
// Outcome rows).

void BM_FusedCounterRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::env::EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(8, 4);
  cfg.seed = 3;
  cfg.enforce_model = false;  // as the packed engine builds it (DESIGN.md §1)
  hh::env::Environment environment(
      std::move(cfg), hh::env::make_pairing_model(hh::env::PairingKind::kCounter),
      hh::env::NoiseConfig{}, hh::env::WorldLanes::kMasked);
  environment.step_masked_go_quiet(
      std::vector<hh::env::MaskedOp>(n, hh::env::MaskedOp::kSearch),
      std::vector<hh::env::NestId>(n, hh::env::kHomeNest));

  constexpr std::size_t kMixes = 4;
  std::vector<std::vector<hh::env::MaskedOp>> op(kMixes);
  std::vector<std::vector<std::uint8_t>> active(kMixes);
  std::vector<hh::env::NestId> targets(n);
  for (hh::env::AntId a = 0; a < n; ++a) targets[a] = environment.location(a);
  hh::util::Rng mix(11);
  for (std::size_t r = 0; r < kMixes; ++r) {
    op[r].resize(n);
    active[r].resize(n);
    for (hh::env::AntId a = 0; a < n; ++a) {
      const bool recruit = mix.bernoulli(0.78);
      op[r][a] = recruit ? hh::env::MaskedOp::kRecruit : hh::env::MaskedOp::kGo;
      active[r][a] = recruit && mix.bernoulli(0.9) ? 1 : 0;
    }
  }
  for (std::size_t warmup = 0; warmup < 16; ++warmup) {
    environment.step_masked_recruit_quiet(op[warmup % kMixes],
                                          active[warmup % kMixes], targets);
  }

  std::uint64_t allocs = 0;
  std::size_t round = 0;
  for (auto _ : state) {
    const std::size_t r = round++ % kMixes;
    const std::uint64_t before = allocation_count();
    environment.step_masked_recruit_quiet(op[r], active[r], targets);
    allocs += allocation_count() - before;
    benchmark::DoNotOptimize(environment.recruit_results().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_FusedCounterRound)->Arg(4096);

// ---------------------------------------------------------------------------
// One lattice-backend round, steady state (the second env::Backend): an
// all-search round is stationary by construction — walker positions move,
// but every iteration does the same per-ant work. allocs_per_round == 0
// extends the zero-allocation invariant to the new world.

void BM_LatticeRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::env::LatticeConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  hh::env::LatticeBackend world(n, cfg, 3);
  std::vector<hh::env::MaskedOp> op(n, hh::env::MaskedOp::kSearch);
  const std::vector<hh::env::NestId> targets(n, 0);
  world.step_masked_go_quiet(op, targets);  // warm-up round

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocation_count();
    world.step_masked_go_quiet(op, targets);
    allocs += allocation_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_LatticeRound)->RangeMultiplier(8)->Range(256, 1 << 17);

// One ENGINE round on the lattice, per engine, through the Simulation
// driver (scheduler consult + masked dispatch + convergence mirror).
// reset(seed) is allocation-free, so periodic resets keep the workload
// from saturating (every walker parked on the target would time idles).

void BM_LatticeEngineRound(benchmark::State& state,
                           hh::core::EngineKind engine) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::core::SimulationConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = {1.0};
  cfg.seed = 5;
  cfg.max_rounds = ~0u;
  cfg.engine = engine;
  cfg.lattice.width = 32;
  cfg.lattice.height = 32;
  cfg.env_backend = hh::env::BackendKind::kLattice;
  const auto spec = hh::core::AlgorithmRegistry::instance().find(
      hh::core::kLatticeWalkerAlgorithmName);
  auto sim = std::make_unique<hh::core::Simulation>(cfg, *spec);
  for (int warmup = 0; warmup < 8; ++warmup) sim->step();

  std::uint64_t allocs = 0;
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    // Rewind outside the alloc accounting — the reset itself is not part
    // of a round's cost. The per-object engine cannot reset in place
    // (reset() returns false); reconstruct it instead.
    if ((++iteration & 1023u) == 0 && !sim->reset(iteration)) {
      sim = std::make_unique<hh::core::Simulation>(cfg, *spec);
    }
    const std::uint64_t before = allocation_count();
    benchmark::DoNotOptimize(sim->step());
    allocs += allocation_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_LatticeEngineRound, scalar, hh::core::EngineKind::kScalar)
    ->RangeMultiplier(8)
    ->Range(256, 1 << 16);
BENCHMARK_CAPTURE(BM_LatticeEngineRound, packed, hh::core::EngineKind::kPacked)
    ->RangeMultiplier(8)
    ->Range(256, 1 << 16);

// ---------------------------------------------------------------------------
// One engine round, steady state: the per-object ant loop (virtual
// decide/observe per ant) against the packed SoA pass, identical
// simulations otherwise. The simple rows keep stepping past convergence,
// which is exactly the steady state we want to time; packed_noisy is the
// packed simple row under noisy observation (the masked round's
// perception pass, and the round kernel reading the perceived lanes), and
// packed_psync the packed simple row under partial synchrony (skip 0.1:
// the next round's awake-mask draw and the kernel's per-ant acting
// lanes). The packed_optimal_counter row steps whole Algorithm-2 trials
// instead (counter-lottery pairing, n = 4096, k = 8), resetting to the
// next seed at convergence, so its rounds span the active-heavy opening,
// the mixed passive/final middle and the all-final tail.
// packed_optimal_psync is the same row under partial synchrony (skip
// 0.1), where sleeping ants freeze their blocks and the kernel runs per
// ant at each ant's own block step; such a colony rarely converges at
// this size, so the row mostly times its long mixed middle. CI's
// zero-allocation gate covers every packed row.

void BM_EngineRound(benchmark::State& state, hh::core::EngineKind engine,
                    hh::core::AlgorithmKind algorithm =
                        hh::core::AlgorithmKind::kSimple,
                    hh::env::PairingKind pairing =
                        hh::env::PairingKind::kPermutation,
                    hh::env::NoiseConfig noise = {},
                    double skip_probability = 0.0) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const bool whole_trials = algorithm != hh::core::AlgorithmKind::kSimple;
  const std::uint32_t k = whole_trials ? 8 : 4;
  hh::core::SimulationConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(k, k / 2);
  cfg.seed = 5;
  cfg.max_rounds = ~0u;
  cfg.engine = engine;
  cfg.pairing = pairing;
  cfg.noise = noise;
  cfg.skip_probability = skip_probability;
  hh::core::Simulation sim(cfg, algorithm);
  if (!whole_trials) {
    for (int warmup = 0; warmup < 8; ++warmup) sim.step();
  }

  std::uint64_t allocs = 0;
  std::uint64_t seed = cfg.seed;
  for (auto _ : state) {
    // The rewind is not part of a round's cost: outside the alloc
    // accounting, like BM_LatticeEngineRound's.
    if (whole_trials && sim.converged() && !sim.reset(++seed)) {
      state.SkipWithError("packed simulation did not reset in place");
      break;
    }
    const std::uint64_t before = allocation_count();
    benchmark::DoNotOptimize(sim.step());
    allocs += allocation_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_EngineRound, scalar, hh::core::EngineKind::kScalar)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_EngineRound, packed, hh::core::EngineKind::kPacked)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_EngineRound, packed_noisy, hh::core::EngineKind::kPacked,
                  hh::core::AlgorithmKind::kSimple,
                  hh::env::PairingKind::kPermutation,
                  hh::env::NoiseConfig{0.2, 0.02, 0.0})
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_EngineRound, packed_psync, hh::core::EngineKind::kPacked,
                  hh::core::AlgorithmKind::kSimple,
                  hh::env::PairingKind::kPermutation, hh::env::NoiseConfig{},
                  0.1)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_EngineRound, packed_optimal_counter,
                  hh::core::EngineKind::kPacked,
                  hh::core::AlgorithmKind::kOptimal,
                  hh::env::PairingKind::kCounter)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_EngineRound, packed_optimal_psync,
                  hh::core::EngineKind::kPacked,
                  hh::core::AlgorithmKind::kOptimal,
                  hh::env::PairingKind::kCounter, hh::env::NoiseConfig{}, 0.1)
    ->Arg(4096);

// ---------------------------------------------------------------------------
// One FAULT-INJECTED engine round, steady state: crash + Byzantine lanes
// force every round through the masked SoA path (packed) vs the wrapper
// chain (scalar). allocs_per_round must stay 0 on the packed rows — the
// masked entry points extend the zero-allocation invariant to mixed
// rounds. The packed_optimal row is Algorithm 2's laned kernel: crashed
// ants freeze their blocks, so each ant runs at its own block step.

void BM_FaultedEngineRound(benchmark::State& state,
                           hh::core::EngineKind engine,
                           hh::core::AlgorithmKind algorithm =
                               hh::core::AlgorithmKind::kSimple) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::core::SimulationConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(4, 2);
  cfg.seed = 7;
  cfg.max_rounds = ~0u;
  cfg.engine = engine;
  cfg.faults.crash_fraction = 0.1;
  cfg.faults.byzantine_fraction = 0.05;
  cfg.convergence_tolerance = 0.25;
  hh::core::Simulation sim(cfg, algorithm);
  for (int warmup = 0; warmup < 16; ++warmup) sim.step();

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = allocation_count();
    benchmark::DoNotOptimize(sim.step());
    allocs += allocation_count() - before;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["allocs_per_round"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_FaultedEngineRound, scalar, hh::core::EngineKind::kScalar)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14);
BENCHMARK_CAPTURE(BM_FaultedEngineRound, packed, hh::core::EngineKind::kPacked)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14);
BENCHMARK_CAPTURE(BM_FaultedEngineRound, packed_optimal,
                  hh::core::EngineKind::kPacked,
                  hh::core::AlgorithmKind::kOptimal)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14);

// ---------------------------------------------------------------------------
// The packed engine's set-up footprint: one colony build through the
// Scenario + registry path (as Runner and perfbench build it), k = 8,
// counter-lottery pairing, at the two reference sizes. bytes_per_ant is
// the heap the live simulation holds (glibc mallinfo2, uordblks + hblkhd,
// after minus before). page_faults_per_build counts the build's minor
// page faults after malloc_trim has handed the freed pages back, which is
// what a cold build pays on first touch. The timed region is the build
// alone. Builds allocate by design, so these rows stay out of CI's
// zero-allocation gate.

std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

void BM_PackedBuild(benchmark::State& state, const char* algorithm) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::core::SimulationConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(8, 4);
  cfg.pairing = hh::env::PairingKind::kCounter;
  cfg.engine = hh::core::EngineKind::kPacked;
  const auto scenario = hh::analysis::Scenario{
      .name = algorithm, .algorithm = algorithm, .config = cfg};
  // A first build initialises the process-wide caches (algorithm specs,
  // registry), which must not count against the colony.
  (void)scenario.make_simulation(1);
  double bytes = 0.0;
  double faults = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    malloc_trim(0);
    const std::size_t heap_before = heap_in_use();
    const long faults_before = minor_faults();
    state.ResumeTiming();
    auto sim = scenario.make_simulation(1);
    benchmark::DoNotOptimize(sim.get());
    state.PauseTiming();
    faults += static_cast<double>(minor_faults() - faults_before);
    bytes += static_cast<double>(heap_in_use() - heap_before);
    sim.reset();  // destruction stays outside the timed region
    state.ResumeTiming();
  }
  const auto iterations = static_cast<double>(state.iterations());
  state.counters["bytes_per_ant"] =
      benchmark::Counter(bytes / iterations / static_cast<double>(n));
  state.counters["page_faults_per_build"] =
      benchmark::Counter(faults / iterations);
}
BENCHMARK_CAPTURE(BM_PackedBuild, optimal, "optimal")
    ->Arg(4096)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PackedBuild, simple, "simple")
    ->Arg(4096)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// End-to-end trial throughput through the Scenario + registry path (the
// same construction Runner::run performs per trial), per engine.

void BM_TrialThroughput(benchmark::State& state, const char* algorithm,
                        hh::core::EngineKind engine) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::core::SimulationConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(8, 4);
  cfg.engine = engine;
  const auto scenario = hh::analysis::Scenario{
      .name = algorithm, .algorithm = algorithm, .config = cfg};
  // Cycle a FIXED seed set: trial lengths are heavy-tailed (a split colony
  // runs to the round cap), so engines must sample identical workloads
  // regardless of how many iterations the harness grants each of them.
  std::uint64_t iteration = 0;
  std::uint64_t total_rounds = 0;
  for (auto _ : state) {
    const auto result =
        scenario.make_simulation(1 + (iteration++ % 16))->run();
    total_rounds += result.rounds_executed;
    benchmark::DoNotOptimize(result);
  }
  state.counters["trials_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["ant_rounds_per_s"] = benchmark::Counter(
      static_cast<double>(total_rounds) * n, benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_TrialThroughput, simple_scalar, "simple",
                  hh::core::EngineKind::kScalar)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_TrialThroughput, simple_packed, "simple",
                  hh::core::EngineKind::kPacked)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 16);
BENCHMARK_CAPTURE(BM_TrialThroughput, quorum_scalar, "quorum",
                  hh::core::EngineKind::kScalar)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14);
BENCHMARK_CAPTURE(BM_TrialThroughput, quorum_packed, "quorum",
                  hh::core::EngineKind::kPacked)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14);
BENCHMARK_CAPTURE(BM_TrialThroughput, optimal_scalar, "optimal",
                  hh::core::EngineKind::kScalar)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14);
BENCHMARK_CAPTURE(BM_TrialThroughput, optimal_packed, "optimal",
                  hh::core::EngineKind::kPacked)
    ->RangeMultiplier(8)
    ->Range(64, 1 << 14);

// ---------------------------------------------------------------------------
// The headline ratio, measured in one place so the JSON carries it
// directly: interleaved scalar/packed trials (same seeds), counter
// "speedup" = scalar time / packed time.

void BM_PackedSpeedup(benchmark::State& state, const char* algorithm,
                      std::uint32_t k, double crash_fraction = 0.0,
                      double byzantine_fraction = 0.0,
                      hh::env::PairingKind pairing =
                          hh::env::PairingKind::kPermutation) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  hh::core::SimulationConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = hh::core::SimulationConfig::binary_qualities(k, k / 2);
  cfg.faults.crash_fraction = crash_fraction;
  cfg.faults.byzantine_fraction = byzantine_fraction;
  cfg.pairing = pairing;
  if (byzantine_fraction > 0.0) cfg.convergence_tolerance = 0.25;
  auto scenario = hh::analysis::Scenario{
      .name = algorithm, .algorithm = algorithm, .config = cfg};
  std::uint64_t iteration = 0;
  double scalar_seconds = 0.0;
  double packed_seconds = 0.0;
  using clock = std::chrono::steady_clock;
  for (auto _ : state) {
    const std::uint64_t seed = 1 + (iteration++ % 16);
    scenario.config.engine = hh::core::EngineKind::kScalar;
    const auto t0 = clock::now();
    benchmark::DoNotOptimize(scenario.make_simulation(seed)->run());
    const auto t1 = clock::now();
    scenario.config.engine = hh::core::EngineKind::kPacked;
    benchmark::DoNotOptimize(scenario.make_simulation(seed)->run());
    const auto t2 = clock::now();
    scalar_seconds += std::chrono::duration<double>(t1 - t0).count();
    packed_seconds += std::chrono::duration<double>(t2 - t1).count();
  }
  state.counters["speedup"] =
      benchmark::Counter(scalar_seconds / packed_seconds);
}
BENCHMARK_CAPTURE(BM_PackedSpeedup, simple_k8, "simple", 8u)->Arg(4096);
BENCHMARK_CAPTURE(BM_PackedSpeedup, simple_k4, "simple", 4u)->Arg(4096);
BENCHMARK_CAPTURE(BM_PackedSpeedup, quorum_k8, "quorum", 8u)->Arg(4096);

// The end-to-end headline for Algorithm 2 (optimal), settle on and off,
// through the masked per-ant-phase path. The *_counter rows rerun the same
// workload under counter-lottery pairing: pairing happens every round >= 2
// of Algorithm 2, so a draw-free O(m) pairing round is where the packed
// engine's serial-RNG bottleneck breaks (the acceptance bar is speedup
// >= 2.2 on optimal_k8_counter at n=4096).
void BM_PackedOptimalSpeedup(benchmark::State& state, const char* algorithm,
                             std::uint32_t k,
                             hh::env::PairingKind pairing =
                                 hh::env::PairingKind::kPermutation) {
  BM_PackedSpeedup(state, algorithm, k, 0.0, 0.0, pairing);
}
BENCHMARK_CAPTURE(BM_PackedOptimalSpeedup, optimal_k8, "optimal", 8u)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_PackedOptimalSpeedup, optimal_settle_k8,
                  "optimal+settle", 8u)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_PackedOptimalSpeedup, optimal_k8_counter, "optimal", 8u,
                  hh::env::PairingKind::kCounter)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_PackedOptimalSpeedup, optimal_settle_k8_counter,
                  "optimal+settle", 8u, hh::env::PairingKind::kCounter)
    ->Arg(4096);

// Faulted end-to-end ratio: the fault lanes must not give the speedup
// back.
BENCHMARK_CAPTURE(BM_PackedSpeedup, faulted_simple_k4, "simple", 4u, 0.1,
                  0.05)
    ->Arg(4096);

}  // namespace

// Custom main: always emit the machine-readable perf record (benchmark
// refuses a file reporter without --benchmark_out, so inject the flag when
// the caller didn't pass one).
int main(int argc, char** argv) {
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=bench_out/BENCH_hotpath.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
