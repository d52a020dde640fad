// Tests of the string-keyed algorithm registry.
#include "core/registry.hpp"

#include <gtest/gtest.h>

#include "core/ant_pack.hpp"

#include "test_util.hpp"

namespace hh::core {
namespace {

TEST(Registry, ContainsEveryBuiltinKind) {
  auto& registry = AlgorithmRegistry::instance();
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    EXPECT_TRUE(registry.contains(algorithm_name(kind)))
        << algorithm_name(kind);
  }
}

TEST(Registry, RoundTripsEveryKindThroughNames) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    const auto back = algorithm_from_name(algorithm_name(kind));
    ASSERT_TRUE(back.has_value()) << algorithm_name(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(algorithm_from_name("no-such-algorithm").has_value());
}

TEST(Registry, BuildsARunnableSimulationForEveryKind) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    const auto cfg = test::small_config(64, 2, 1, 7);
    auto sim = make_simulation(algorithm_name(kind), cfg);
    ASSERT_NE(sim, nullptr);
    EXPECT_EQ(sim->algorithm(), algorithm_name(kind));
    EXPECT_EQ(sim->num_ants(), 64u);
    // With the default kAuto engine, every built-in algorithm lands on
    // the SoA fast path.
    EXPECT_TRUE(sim->packed()) << algorithm_name(kind);
  }
}

TEST(Registry, RegistryMatchesDirectConstructionExactly) {
  // The factory path must reproduce the direct Simulation(kind) path
  // bit-for-bit: same colony, same environment seed derivations.
  const auto cfg = test::small_config(128, 4, 2, 99);
  auto via_registry = make_simulation("simple", cfg);
  Simulation direct(cfg, AlgorithmKind::kSimple);
  const auto a = via_registry->run();
  const auto b = direct.run();
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.total_recruitments, b.total_recruitments);
}

TEST(Registry, UnknownNameThrowsListingKnownOnes) {
  const auto cfg = test::small_config();
  try {
    (void)make_simulation("martian", cfg);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("martian"), std::string::npos);
    EXPECT_NE(what.find("simple"), std::string::npos);
  }
}

TEST(Registry, CustomRegistrationIsVisibleAndReplaceable) {
  auto& registry = AlgorithmRegistry::instance();
  AlgorithmSpec custom = builtin_algorithm_spec(AlgorithmKind::kSimple);
  custom.name = "test-custom";
  registry.add(custom);
  EXPECT_TRUE(registry.contains("test-custom"));
  const auto cfg = test::small_config(64, 2, 1, 3);
  auto sim = registry.make("test-custom", cfg);
  EXPECT_TRUE(sim->run().converged);
  // Replacement under the same name is allowed (last one wins).
  AlgorithmSpec replacement = builtin_algorithm_spec(AlgorithmKind::kOptimal);
  replacement.name = "test-custom";
  registry.add(replacement);
  EXPECT_EQ(registry.find("test-custom")->mode, replacement.mode);
  // make() builds from the replacement: the run is Algorithm 2's, under
  // the registered name.
  auto replaced = registry.make("test-custom", cfg);
  EXPECT_EQ(replaced->algorithm(), "test-custom");
  const RunResult got = replaced->run();
  const RunResult want = Simulation(cfg, AlgorithmKind::kOptimal).run();
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.winner, want.winner);
  EXPECT_EQ(got.total_recruitments, want.total_recruitments);
}

TEST(Registry, NamesAreSortedAndIncludeBuiltins) {
  const auto names = AlgorithmRegistry::instance().names();
  EXPECT_GE(names.size(), all_algorithm_kinds().size());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// --- registry v2: specs, capability matrices, param schemas -----------------

TEST(RegistryV2, BuiltinSpecsDeclareTheStandardPackMatrix) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    const AlgorithmSpec spec = builtin_algorithm_spec(kind);
    EXPECT_EQ(spec.name, algorithm_name(kind));
    EXPECT_EQ(spec.mode, default_mode(kind));
    ASSERT_TRUE(static_cast<bool>(spec.pack)) << spec.name;
    ASSERT_TRUE(static_cast<bool>(spec.colony));
    // Every built-in pack rides the AntPack base, whose fault lanes,
    // exact/noisy observe views and awake mask supply the whole standard
    // matrix, partial synchrony included.
    EXPECT_EQ(spec.capabilities, Capabilities::standard_pack()) << spec.name;
    EXPECT_TRUE(spec.capabilities.partial_synchrony);
    // The declared param schema only names real table keys.
    for (const std::string& key : spec.params) {
      EXPECT_NE(find_param(key), nullptr) << spec.name << "." << key;
    }
  }
}

TEST(RegistryV2, DeclaredCapabilitiesPredictEngineSelection) {
  // The declared matrix must match what tests/test_ant_pack.cpp actually
  // exercises packed: crash and Byzantine fault lanes, count and quality
  // noise, both pairing models, and partial synchrony. Engine selection
  // is a pure function of the declaration (capability_gaps), so each
  // declared capability demanded via kPacked must build packed.
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    ASSERT_TRUE(builtin_algorithm_spec(kind).pack) << algorithm_name(kind);
    const auto demand_packed = [&](auto mutate) {
      auto cfg = test::small_config(32, 4, 2);
      cfg.engine = EngineKind::kPacked;
      mutate(cfg);
      Simulation sim(cfg, kind);
      EXPECT_TRUE(sim.packed()) << algorithm_name(kind);
    };
    demand_packed([](SimulationConfig& cfg) {
      cfg.faults.crash_fraction = 0.25;  // declared: crash_faults
    });
    demand_packed([](SimulationConfig& cfg) {
      cfg.faults.byzantine_fraction = 0.1;  // declared: byzantine_faults
      cfg.convergence_tolerance = 0.3;
    });
    demand_packed([](SimulationConfig& cfg) {
      cfg.noise.count_sigma = 0.5;  // declared: count_noise
    });
    demand_packed([](SimulationConfig& cfg) {
      cfg.noise.quality_flip_prob = 0.05;  // declared: quality_noise
    });
    demand_packed([](SimulationConfig& cfg) {
      cfg.pairing = env::PairingKind::kUniformProposal;  // declared
    });

    demand_packed([](SimulationConfig& cfg) {
      cfg.skip_probability = 0.2;  // declared: partial_synchrony
    });
  }
}

TEST(RegistryV2, IdleSearchVariantIsRegisteredPurelyThroughTheSpecApi) {
  auto& registry = AlgorithmRegistry::instance();
  ASSERT_TRUE(registry.contains("idle-search"));
  const auto spec = registry.find("idle-search");
  ASSERT_NE(spec, nullptr);
  EXPECT_FALSE(static_cast<bool>(spec->pack));  // scalar-only by declaration
  EXPECT_EQ(spec->params,
            (std::vector<std::string>{"n_estimate_error", "idle_search_prob"}));

  // Runs (and converges) by name through the registry...
  const auto cfg = test::small_config(128, 4, 2, 21);
  auto sim = registry.make("idle-search", cfg);
  EXPECT_FALSE(sim->packed());
  const RunResult result = sim->run();
  EXPECT_TRUE(result.converged);
  EXPECT_NE(result.engine_fallback.find("no packed implementation"),
            std::string::npos);

  // ...honors its param schema (idle_search_prob = 0 behaves like plain
  // waiting passives; still converges)...
  AlgorithmParams params;
  params.idle_search_prob = 0.0;
  EXPECT_TRUE(registry.make("idle-search", cfg, params)->run().converged);

  // ...and demands on the packed engine fail loudly, naming the gap.
  auto packed_cfg = cfg;
  packed_cfg.engine = EngineKind::kPacked;
  try {
    (void)registry.make("idle-search", packed_cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("idle-search"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("no packed implementation"),
              std::string::npos);
  }

  // Under fault plans the generic wrappers apply (the variant wrote no
  // fault code): crash-prone idle-search colonies still converge.
  auto faulted = test::small_config(128, 4, 2, 22);
  faulted.faults.crash_fraction = 0.1;
  EXPECT_TRUE(registry.make("idle-search", faulted)->run().converged);
}

TEST(RegistryV2, AddValidatesSpecs) {
  auto& registry = AlgorithmRegistry::instance();
  AlgorithmSpec nameless = builtin_algorithm_spec(AlgorithmKind::kSimple);
  nameless.name.clear();
  EXPECT_THROW(registry.add(std::move(nameless)), std::invalid_argument);

  // A spec without a colony factory is rejected even when it ships a
  // pack: the colony factory is the reference engine every spec needs.
  AlgorithmSpec factoryless = builtin_algorithm_spec(AlgorithmKind::kSimple);
  factoryless.name = "test-factoryless";
  factoryless.colony = nullptr;
  EXPECT_THROW(registry.add(std::move(factoryless)), std::invalid_argument);
  EXPECT_FALSE(registry.contains("test-factoryless"));

  AlgorithmSpec empty;
  empty.name = "test-empty";
  EXPECT_THROW(registry.add(std::move(empty)), std::invalid_argument);

  AlgorithmSpec bad_param;
  bad_param.name = "test-bad-param";
  bad_param.colony = builtin_algorithm_spec(AlgorithmKind::kSimple).colony;
  bad_param.params = {"no_such_knob"};
  EXPECT_THROW(registry.add(std::move(bad_param)), std::invalid_argument);
}

TEST(RegistryV2, SpecRegisteredPackIsSelectedByTheCapabilityDiff) {
  // A third-party spec that ships a pack + the standard matrix gets kAuto
  // packed selection with zero engine edits — the tentpole's promise.
  auto& registry = AlgorithmRegistry::instance();
  AlgorithmSpec spec = builtin_algorithm_spec(AlgorithmKind::kSimple);
  spec.name = "test-packed-clone";
  registry.add(spec);

  const auto cfg = test::small_config(64, 4, 2, 9);
  auto fast = registry.make("test-packed-clone", cfg);
  EXPECT_TRUE(fast->packed());
  EXPECT_EQ(fast->algorithm(), "test-packed-clone");
  // Bit-identical to the built-in it clones: same factories, same seeds.
  const RunResult a = fast->run();
  const RunResult b = Simulation(cfg, AlgorithmKind::kSimple).run();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.total_recruitments, b.total_recruitments);

  // Partial synchrony rides the same diff: declared, so still packed.
  auto skewed = cfg;
  skewed.skip_probability = 0.1;
  auto slow = registry.make("test-packed-clone", skewed);
  EXPECT_TRUE(slow->packed());
  EXPECT_TRUE(slow->engine_fallback().empty());
}

}  // namespace
}  // namespace hh::core
