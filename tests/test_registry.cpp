// Tests of the string-keyed algorithm registry.
#include "core/registry.hpp"

#include <gtest/gtest.h>

#include "core/ant_pack.hpp"
#include "util/contracts.hpp"

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

// --- registry v2: specs, engine selection, param schemas -------------------

TEST(RegistryV2, BuiltinCatalogIsPinned) {
  // Every built-in, in AlgorithmKind declaration order, as the code
  // before the one-row-per-built-in catalog defined it: name, summary,
  // convergence mode, parameter keys and world, plus both factories (each
  // built-in ships a pack for the home-nest world).
  struct Pin {
    AlgorithmKind kind;
    std::string name;
    std::string summary;
    ConvergenceMode mode;
    std::vector<std::string> params;
  };
  const std::vector<Pin> pins = {
      {AlgorithmKind::kOptimal, "optimal",
       "Algorithm 2: O(log n) tournament of nest pairs (Section 4)",
       ConvergenceMode::kCommitmentFinalized, {}},
      {AlgorithmKind::kOptimalSettle, "optimal+settle",
       "Algorithm 2 + the Section 4.2 settle/termination extension",
       ConvergenceMode::kPhysical, {}},
      {AlgorithmKind::kSimple, "simple",
       "Algorithm 3: population-proportional feedback, O(k log n)",
       ConvergenceMode::kCommitment, {"n_estimate_error"}},
      {AlgorithmKind::kRateBoosted, "rate-boosted",
       "Section 6 boosted-rate variant (removes the Theta(k) factor)",
       ConvergenceMode::kCommitment, {"n_estimate_error"}},
      {AlgorithmKind::kQualityAware, "quality-aware",
       "Section 6 non-binary-quality variant", ConvergenceMode::kCommitment,
       {"n_estimate_error"}},
      {AlgorithmKind::kUniformRecruit, "uniform-recruit",
       "no-feedback baseline (negative control)", ConvergenceMode::kCommitment,
       {"uniform_recruit_prob"}},
      {AlgorithmKind::kQuorum, "quorum",
       "biology-inspired quorum-threshold baseline",
       ConvergenceMode::kCommitment,
       {"quorum_fraction", "quorum_tandem_rate"}},
  };
  ASSERT_EQ(all_algorithm_kinds().size(), pins.size());
  const auto cfg = test::small_config(8, 2, 1, 5);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const Pin& pin = pins[i];
    SCOPED_TRACE(pin.name);
    EXPECT_EQ(all_algorithm_kinds()[i], pin.kind);
    EXPECT_EQ(static_cast<std::size_t>(pin.kind), i);
    EXPECT_EQ(algorithm_name(pin.kind), pin.name);
    EXPECT_EQ(default_mode(pin.kind), pin.mode);
    EXPECT_EQ(algorithm_from_name(pin.name), pin.kind);
    const AlgorithmSpec& spec = builtin_algorithm_spec(pin.kind);
    EXPECT_EQ(spec.name, pin.name);
    EXPECT_EQ(spec.summary, pin.summary);
    EXPECT_EQ(spec.mode, pin.mode);
    EXPECT_EQ(spec.params, pin.params);
    for (const std::string& key : spec.params) {
      EXPECT_NE(find_param(key), nullptr) << key;  // real table keys only
    }
    EXPECT_EQ(spec.env_backend, env::BackendKind::kHomeNest);
    ASSERT_TRUE(static_cast<bool>(spec.colony));
    ASSERT_TRUE(static_cast<bool>(spec.pack));
    const Colony colony = spec.colony(cfg, env::FaultPlan::none(8), 11, {});
    EXPECT_EQ(colony.algorithm, pin.name);
    EXPECT_EQ(colony.size(), 8u);
    EXPECT_EQ(spec.pack(cfg, 11, {}, nullptr)->size(), 8u);
    // The registry serves the same row under the name.
    const auto registered = AlgorithmRegistry::instance().find(pin.name);
    ASSERT_NE(registered, nullptr);
    EXPECT_EQ(registered->summary, pin.summary);
    EXPECT_EQ(registered->mode, pin.mode);
    EXPECT_EQ(registered->params, pin.params);
  }
}

TEST(RegistryV2, PackThatCannotServeTheSpecModeFailsAtConstruction) {
  // A clone of simple registered under kPhysical: its pack keeps only the
  // commitment census, so the Simulation refuses it where it is made,
  // before any round runs.
  auto& registry = AlgorithmRegistry::instance();
  AlgorithmSpec spec = builtin_algorithm_spec(AlgorithmKind::kSimple);
  spec.name = "test-physical-clone";
  spec.mode = ConvergenceMode::kPhysical;
  registry.add(spec);
  const auto cfg = test::small_config(64, 4, 2, 9);
  EXPECT_THROW((void)registry.make("test-physical-clone", cfg),
               ContractViolation);
  // The per-object engine serves every mode.
  auto scalar = cfg;
  scalar.engine = EngineKind::kScalar;
  EXPECT_NO_THROW((void)registry.make("test-physical-clone", scalar));
}

TEST(RegistryV2, EveryBuiltinRunsPackedUnderEverySection6Extension) {
  // A spec runs packed iff it ships a pack, so every built-in algorithm
  // must run packed, under kPacked and with no fallback under kAuto, for
  // each Section 6 extension and all three pairing models — and its pack
  // must serve the algorithm's convergence mode through a whole run.
  using Mutate = void (*)(SimulationConfig&);
  const std::vector<std::pair<const char*, Mutate>> inputs = {
      {"exact", [](SimulationConfig&) {}},
      {"crash", [](SimulationConfig& cfg) { cfg.faults.crash_fraction = 0.25; }},
      {"byzantine",
       [](SimulationConfig& cfg) {
         cfg.faults.byzantine_fraction = 0.1;
         cfg.convergence_tolerance = 0.3;
       }},
      {"count noise", [](SimulationConfig& cfg) { cfg.noise.count_sigma = 0.5; }},
      {"quality flips",
       [](SimulationConfig& cfg) { cfg.noise.quality_flip_prob = 0.05; }},
      {"quality sigma",
       [](SimulationConfig& cfg) { cfg.noise.quality_sigma = 0.1; }},
      {"uniform-proposal",
       [](SimulationConfig& cfg) {
         cfg.pairing = env::PairingKind::kUniformProposal;
       }},
      {"counter-lottery",
       [](SimulationConfig& cfg) { cfg.pairing = env::PairingKind::kCounter; }},
      {"partial synchrony",
       [](SimulationConfig& cfg) { cfg.skip_probability = 0.2; }},
  };
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    for (const auto& [label, mutate] : inputs) {
      auto cfg = test::small_config(32, 4, 2);
      cfg.max_rounds = 400;
      mutate(cfg);
      cfg.engine = EngineKind::kPacked;
      EXPECT_TRUE(Simulation(cfg, kind).packed())
          << algorithm_name(kind) << " / " << label;
      cfg.engine = EngineKind::kAuto;
      Simulation sim(cfg, kind);
      EXPECT_TRUE(sim.packed()) << algorithm_name(kind) << " / " << label;
      const RunResult result = sim.run();
      EXPECT_EQ(result.engine, EngineKind::kPacked)
          << algorithm_name(kind) << " / " << label;
      EXPECT_EQ(result.engine_fallback, "")
          << algorithm_name(kind) << " / " << label;
    }
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
  // Manifests and the daemon's job records carry the reason verbatim.
  EXPECT_EQ(result.engine_fallback,
            "algorithm 'idle-search' has no packed implementation");

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
    EXPECT_STREQ(e.what(),
                 "engine=packed requested but algorithm 'idle-search' has no "
                 "packed implementation; use kAuto to fall back to the "
                 "per-object engine");
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

TEST(RegistryV2, SpecRegisteredPackIsSelectedBecauseItShipsOne) {
  // A third-party spec that ships a pack gets kAuto packed selection with
  // zero engine edits.
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

  // Partial synchrony runs on the same pack: still packed.
  auto skewed = cfg;
  skewed.skip_probability = 0.1;
  auto slow = registry.make("test-packed-clone", skewed);
  EXPECT_TRUE(slow->packed());
  EXPECT_TRUE(slow->engine_fallback().empty());
}

}  // namespace
}  // namespace hh::core
