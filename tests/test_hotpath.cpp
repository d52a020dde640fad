// The zero-allocation invariant of the hot path: after construction,
// env::Environment::step() — and the whole packed-engine round on top of
// it — performs no heap allocations. Enforced with a counting global
// operator new, so a regression (a stray vector copy, a pairing model
// that forgets its scratch) fails loudly here rather than silently
// costing a sweep 20% throughput.
#include <gtest/gtest.h>
#include <malloc.h>

#include "core/simulation.hpp"
#include "counting_alloc.hpp"
#include "env/environment.hpp"
#include "test_util.hpp"

// ASan and TSan replace malloc with allocators that mallinfo2 does not
// see, so the footprint gate below skips under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HH_MALLINFO_BLIND 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HH_MALLINFO_BLIND 1
#endif
#endif

namespace hh {
namespace {

/// Allocations performed by fn(). Only the counter reads around measured
/// regions matter; gtest's own allocations happen outside them.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = testing::allocation_count();
  fn();
  return testing::allocation_count() - before;
}

env::EnvironmentConfig env_config(std::uint32_t n, env::PairingKind kind) {
  env::EnvironmentConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = {1.0, 1.0, 0.0, 0.0};
  cfg.seed = 9;
  (void)kind;
  return cfg;
}

TEST(HotPath, EnvironmentStepNeverAllocates) {
  for (const env::PairingKind kind :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    env::Environment environment(env_config(512, kind),
                                 env::make_pairing_model(kind));
    std::vector<env::Action> search(512, env::Action::search());
    std::vector<env::Action> recruit(512);

    // Round 1 (the all-search round) must already be allocation-free.
    EXPECT_EQ(allocations_during([&] { environment.step(search); }), 0u)
        << "search round, pairing " << static_cast<int>(kind);

    // Recruit rounds exercise the pairing process + scratch buffers.
    for (env::AntId a = 0; a < 512; ++a) {
      recruit[a] = env::Action::recruit(a % 2 == 0, environment.location(a));
    }
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 50; ++round) {
                  environment.step(recruit);
                }
              }),
              0u)
        << "recruit rounds, pairing " << static_cast<int>(kind);

    // Under noise step() runs the perception pass too.
    env::Environment noisy(env_config(512, kind), env::make_pairing_model(kind),
                           env::NoiseConfig{0.2, 0.02});
    EXPECT_EQ(allocations_during([&] {
                noisy.step(search);
                for (int round = 0; round < 20; ++round) noisy.step(recruit);
              }),
              0u)
        << "noisy rounds, pairing " << static_cast<int>(kind);

    // A mixed go/idle/search round, idle allowed: the idle arm of the
    // round's first pass (crashed or sleeping ants on the scalar engine).
    auto idle_cfg = env_config(512, kind);
    idle_cfg.allow_idle = true;
    env::Environment mixed(std::move(idle_cfg), env::make_pairing_model(kind));
    mixed.step(search);
    std::vector<env::Action> go_idle_search(512);
    for (env::AntId a = 0; a < 512; ++a) {
      go_idle_search[a] = a % 3 == 0   ? env::Action::go(mixed.location(a))
                          : a % 3 == 1 ? env::Action::idle()
                                       : env::Action::search();
    }
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 20; ++round) {
                  mixed.step(go_idle_search);
                }
              }),
              0u)
        << "go/idle/search rounds, pairing " << static_cast<int>(kind);
  }
}

TEST(HotPath, PackedSimulationRoundNeverAllocates) {
  core::SimulationConfig cfg;
  cfg.num_ants = 512;
  cfg.qualities = core::SimulationConfig::binary_qualities(4, 2);
  cfg.seed = 13;
  cfg.engine = core::EngineKind::kPacked;
  // simple/quorum cover the colony-uniform rounds; optimal (settle on and
  // off) covers the mixed-phase rounds — every round >= 2 of Algorithm 2
  // interleaves recruit and go calls across per-ant states. All three
  // pairing models must honor the contract (the counter model's ticket
  // lane is reserved up front like every other scratch lane), exact
  // observation and noisy observation (the perception pass) alike, and
  // so must partial synchrony (the next round's awake-mask draw in the
  // round tail, the per-ant acting lanes, and the sleep rows).
  for (const double skip : {0.0, 0.1}) {
    cfg.skip_probability = skip;
    for (const bool noisy : {false, true}) {
      cfg.noise.count_sigma = noisy ? 0.2 : 0.0;
      cfg.noise.quality_flip_prob = noisy ? 0.02 : 0.0;
      for (const env::PairingKind pairing :
           {env::PairingKind::kPermutation,
            env::PairingKind::kUniformProposal, env::PairingKind::kCounter}) {
        cfg.pairing = pairing;
        for (const core::AlgorithmKind kind :
             {core::AlgorithmKind::kSimple, core::AlgorithmKind::kQuorum,
              core::AlgorithmKind::kOptimal,
              core::AlgorithmKind::kOptimalSettle}) {
          core::Simulation sim(cfg, kind);
          ASSERT_TRUE(sim.packed());
          sim.step();  // settle any lazy first-round setup
          EXPECT_EQ(allocations_during([&] {
                      for (int round = 0; round < 100; ++round) sim.step();
                    }),
                    0u)
              << core::algorithm_name(kind) << " / "
              << env::pairing_name(pairing) << (noisy ? " / noisy" : " / exact")
              << " / skip " << skip;
        }
      }
    }
  }
}

TEST(HotPath, ScalarSimulationRoundNeverAllocates) {
  // The per-object engine's detector takes its census into a buffer the
  // Simulation owns, so its rounds allocate nothing before convergence
  // either (after it, the detector no longer takes a census).
  core::SimulationConfig cfg;
  cfg.num_ants = 512;
  cfg.qualities = core::SimulationConfig::binary_qualities(4, 2);
  cfg.seed = 13;
  cfg.engine = core::EngineKind::kScalar;
  for (const core::AlgorithmKind kind :
       {core::AlgorithmKind::kSimple, core::AlgorithmKind::kQuorum,
        core::AlgorithmKind::kOptimal}) {
    core::Simulation sim(cfg, kind);
    ASSERT_FALSE(sim.packed());
    sim.step();
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 10; ++round) sim.step();
              }),
              0u)
        << core::algorithm_name(kind);
    EXPECT_FALSE(sim.converged()) << core::algorithm_name(kind);
  }
}

TEST(HotPath, FaultedPackedRoundNeverAllocates) {
  // Crash + Byzantine lanes push every round through the masked SoA entry
  // points; the zero-allocation contract must survive the overlay.
  core::SimulationConfig cfg;
  cfg.num_ants = 512;
  cfg.qualities = core::SimulationConfig::binary_qualities(4, 2);
  cfg.seed = 29;
  cfg.engine = core::EngineKind::kPacked;
  cfg.faults.crash_fraction = 0.1;
  cfg.faults.byzantine_fraction = 0.05;
  cfg.convergence_tolerance = 0.25;
  for (const core::AlgorithmKind kind :
       {core::AlgorithmKind::kSimple, core::AlgorithmKind::kOptimal}) {
    core::Simulation sim(cfg, kind);
    ASSERT_TRUE(sim.packed());
    for (int warmup = 0; warmup < 12; ++warmup) sim.step();
    EXPECT_EQ(allocations_during([&] {
                for (int round = 0; round < 100; ++round) sim.step();
              }),
              0u)
        << core::algorithm_name(kind);
  }
}

// The set-up footprint: a packed build allocates only the lanes its round
// reads — no Outcome rows, no knowledge table, no per-ant Action rows, no
// settle streak for plain optimal. 110 B/ant leaves room for allocator
// rounding above the ~98 B/ant these lanes take; the full lane set
// measured 152.6 B/ant.
TEST(HotPath, PackedOptimalBuildFootprint) {
#ifdef HH_MALLINFO_BLIND
  GTEST_SKIP() << "mallinfo2 does not see the sanitizer's allocator";
#else
  constexpr std::uint32_t n = 4096;
  core::SimulationConfig cfg;
  cfg.num_ants = n;
  cfg.qualities = core::SimulationConfig::binary_qualities(8, 4);
  cfg.pairing = env::PairingKind::kCounter;
  cfg.engine = core::EngineKind::kPacked;
  // A first build initialises the process-wide caches (algorithm specs,
  // registry), which must not count against the colony.
  { core::Simulation warm(cfg, core::AlgorithmKind::kOptimal); }
  const auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const std::size_t before = in_use();
  const core::Simulation sim(cfg, core::AlgorithmKind::kOptimal);
  const std::size_t after = in_use();
  ASSERT_TRUE(sim.packed());
  const double bytes_per_ant =
      static_cast<double>(after - before) / static_cast<double>(n);
  EXPECT_LE(bytes_per_ant, 110.0);
#endif
}

TEST(HotPath, PairIntoReusesScratch) {
  // The environment packs each round's active flags into its scratch and
  // pairs them there: after one warm call, pair_active allocates nothing.
  std::vector<std::uint8_t> flags(256);
  for (std::size_t i = 0; i < flags.size(); ++i) flags[i] = i % 2 == 0 ? 1 : 0;
  util::Rng rng(4);
  env::PairingScratch scratch;
  scratch.reserve(flags.size());
  for (const env::PairingKind kind :
       {env::PairingKind::kPermutation, env::PairingKind::kUniformProposal,
        env::PairingKind::kCounter}) {
    const auto model = env::make_pairing_model(kind);
    model->pair_active(flags, rng, scratch);  // warm (workspace sizing)
    EXPECT_EQ(allocations_during([&] {
                for (int i = 0; i < 20; ++i) {
                  model->pair_active(flags, rng, scratch);
                }
              }),
              0u)
        << model->name();
    ASSERT_EQ(scratch.recruited_by.size(), flags.size());
    ASSERT_EQ(scratch.recruit_succeeded.size(), flags.size());
  }
}

}  // namespace
}  // namespace hh
