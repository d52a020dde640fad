// The serializable experiment-description layer: JSON codec correctness,
// the canonical fixed-point property (spec -> JSON -> spec -> JSON is
// byte-stable), path-qualified rejection of malformed specs, and the
// fingerprint contract (identity JSON backs scenario_fingerprint).
#include "analysis/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "analysis/result_store.hpp"
#include "core/registry.hpp"
#include "test_util.hpp"
#include "util/binary_io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace hh::analysis {
namespace {

using util::Json;

// --- util/json --------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const Json doc = util::parse_json(
      R"({"a": 1, "b": [true, false, null], "c": {"d": "x\ny"}, "e": -2.5e3})");
  EXPECT_EQ(doc.find("a")->as_number(), 1.0);
  EXPECT_EQ(doc.find("b")->as_array().size(), 3u);
  EXPECT_TRUE(doc.find("b")->as_array()[0].as_bool());
  EXPECT_TRUE(doc.find("b")->as_array()[2].is_null());
  EXPECT_EQ(doc.find("c")->find("d")->as_string(), "x\ny");
  EXPECT_EQ(doc.find("e")->as_number(), -2500.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ErrorsCarryLineAndColumn) {
  try {
    (void)util::parse_json("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
  EXPECT_THROW((void)util::parse_json("[1, 2"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("07"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("[1] trailing"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("\"\\q\""), util::JsonParseError);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const Json doc = util::parse_json(R"(["\u0041\u00e9\u20ac"])");
  EXPECT_EQ(doc.as_array()[0].as_string(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(Json, DumpParseIsAFixedPointForRandomDoubles) {
  // format_double must emit the shortest rendering that parses back
  // bit-identically — the property every canonical-form guarantee sits on.
  util::Rng rng(0xD0B1E5);
  std::size_t checked = 0;
  while (checked < 2000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    ++checked;
    const std::string text = util::format_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
  // And a few adversarial classics.
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 5e-324, 0.0, -0.0,
                         9007199254740993.0, 2.2250738585072011e-308}) {
    EXPECT_EQ(std::strtod(util::format_double(v).c_str(), nullptr), v);
  }
}

TEST(Json, CompactAndPrettyFormsParseIdentically) {
  Json doc{Json::Object{}};
  doc.set("xs", Json(Json::Array{Json(1.5), Json("two"), Json(true)}));
  doc.set("nested", Json(Json::Object{{"k", Json(nullptr)}}));
  const Json compact = util::parse_json(util::dump_json(doc, 0));
  const Json pretty = util::parse_json(util::dump_json(doc, 2));
  EXPECT_EQ(compact, doc);
  EXPECT_EQ(pretty, doc);
}

// --- scenario round trips ---------------------------------------------------

/// A randomized (but seed-deterministic) scenario touching every
/// serialized field.
Scenario random_scenario(util::Rng& rng) {
  Scenario sc;
  sc.name = "rand/" + std::to_string(rng.uniform_u64(1 << 20));
  const auto& names = core::AlgorithmRegistry::instance().names();
  sc.algorithm = names[rng.uniform_u64(names.size())];
  sc.config.num_ants = 1 + static_cast<std::uint32_t>(rng.uniform_u64(4096));
  const std::size_t k = 1 + rng.uniform_u64(6);
  for (std::size_t i = 0; i < k; ++i) {
    sc.config.qualities.push_back(rng.bernoulli(0.5) ? 1.0
                                                     : rng.uniform_double());
  }
  sc.config.seed = rng();
  sc.config.max_rounds = static_cast<std::uint32_t>(rng.uniform_u64(5000));
  sc.config.stability_rounds = static_cast<std::uint32_t>(rng.uniform_u64(8));
  sc.config.convergence_tolerance = rng.uniform_double() * 0.3;
  sc.config.enforce_model = rng.bernoulli(0.5);
  sc.config.record_trajectories = rng.bernoulli(0.2);
  sc.config.skip_probability = rng.bernoulli(0.3) ? rng.uniform_double() : 0.0;
  sc.config.noise.count_sigma = rng.bernoulli(0.3) ? rng.uniform_double() : 0.0;
  sc.config.noise.quality_flip_prob =
      rng.bernoulli(0.3) ? rng.uniform_double() : 0.0;
  sc.config.faults.crash_fraction =
      rng.bernoulli(0.3) ? rng.uniform_double() * 0.5 : 0.0;
  sc.config.faults.byzantine_fraction =
      rng.bernoulli(0.3) ? rng.uniform_double() * 0.2 : 0.0;
  sc.config.faults.crash_horizon =
      1 + static_cast<std::uint32_t>(rng.uniform_u64(100));
  sc.config.pairing = rng.bernoulli(0.5) ? env::PairingKind::kPermutation
                                         : env::PairingKind::kUniformProposal;
  sc.config.engine = static_cast<core::EngineKind>(rng.uniform_u64(3));
  for (const core::ParamInfo& info : core::algorithm_param_table()) {
    sc.params.*(info.field) =
        info.min_value +
        (info.max_value - info.min_value) * rng.uniform_double();
  }
  sc.axes.push_back({"n", static_cast<double>(sc.config.num_ants),
                     std::to_string(sc.config.num_ants)});
  return sc;
}

TEST(SpecRoundTrip, ScenarioJsonIsAFixedPointAndPreservesFingerprints) {
  util::Rng rng(0x5CE7A);
  for (int i = 0; i < 50; ++i) {
    const Scenario original = random_scenario(rng);
    const std::string json1 = util::dump_json(scenario_to_json(original));
    const Scenario back = scenario_from_json(util::parse_json(json1));
    const std::string json2 = util::dump_json(scenario_to_json(back));
    ASSERT_EQ(json1, json2);
    ASSERT_EQ(scenario_identity_json(original), scenario_identity_json(back));
    ASSERT_EQ(scenario_fingerprint(original), scenario_fingerprint(back));
    ASSERT_EQ(original.name, back.name);
    ASSERT_EQ(original.config.seed, back.config.seed);
    ASSERT_EQ(original.config.engine, back.config.engine);
  }
}

TEST(SpecRoundTrip, DeclarativeSweepReproducesExpansionExactly) {
  core::SimulationConfig base;
  base.stability_rounds = 2;
  SweepEntry entry;
  entry.name = "grid";
  entry.trials = 4;
  entry.base_seed = 0xFFFFFFFFFFFFFFFFULL;  // 64-bit seeds must survive
  entry.sweep = SweepSpec("grid")
                    .base(base)
                    .algorithms({std::string("simple"), std::string("quorum"),
                                 std::string("idle-search")})
                    .colony_nest_pairs({{64, 2}, {256, 8}}, 0.5)
                    .count_noise({0.0, 0.5})
                    .pairings({env::PairingKind::kPermutation,
                               env::PairingKind::kUniformProposal})
                    .param_values("quorum_fraction", {0.2, 0.4});
  ASSERT_TRUE(entry.sweep->serializable());

  const std::string json1 = util::dump_json(sweep_entry_to_json(entry), 2);
  const SweepEntry back =
      sweep_entry_from_json(util::parse_json(json1), "sweep");
  EXPECT_EQ(back.trials, entry.trials);
  EXPECT_EQ(back.base_seed, entry.base_seed);
  EXPECT_EQ(util::dump_json(sweep_entry_to_json(back), 2), json1);

  const auto a = entry.expand();
  const auto b = back.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(scenario_fingerprint(a[i]), scenario_fingerprint(b[i]));
    ASSERT_EQ(a[i].axes.size(), b[i].axes.size());
    for (std::size_t x = 0; x < a[i].axes.size(); ++x) {
      EXPECT_EQ(a[i].axes[x].axis, b[i].axes[x].axis);
      EXPECT_EQ(a[i].axes[x].value, b[i].axes[x].value);
      EXPECT_EQ(a[i].axes[x].label, b[i].axes[x].label);
    }
  }
}

TEST(SpecRoundTrip, CustomAxisSweepFallsBackToConcreteScenarios) {
  SweepEntry entry;
  entry.name = "custom";
  entry.trials = 2;
  entry.base_seed = 9;
  entry.sweep =
      SweepSpec("custom")
          .base(test::small_config(32, 2, 1))
          .axis("level", {0.25, 0.75},
                [](Scenario& sc, double v) { sc.config.noise.count_sigma = v; });
  ASSERT_FALSE(entry.sweep->serializable());

  const Json json = sweep_entry_to_json(entry);
  EXPECT_NE(json.find("scenarios"), nullptr);
  EXPECT_EQ(json.find("axes"), nullptr);
  const SweepEntry back =
      sweep_entry_from_json(json, "sweep");
  const auto a = entry.expand();
  const auto b = back.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(scenario_fingerprint(a[i]), scenario_fingerprint(b[i]));
  }
}

TEST(SpecRoundTrip, WholeExperimentIsAFixedPoint) {
  ExperimentSpec spec;
  spec.name = "fixture";
  SweepEntry declarative;
  declarative.name = "a";
  declarative.trials = 3;
  declarative.base_seed = 0x511;
  declarative.sweep = SweepSpec("a")
                          .algorithm(core::AlgorithmKind::kSimple)
                          .nest_counts({2, 4}, 0.5)
                          .colony_sizes({64, 128});
  spec.sweeps.push_back(std::move(declarative));
  SweepEntry concrete;
  concrete.name = "b";
  concrete.trials = 1;
  concrete.base_seed = 7;
  concrete.scenarios = {Scenario::of("b/one", core::AlgorithmKind::kQuorum,
                                     test::small_config(64, 4, 2))};
  spec.sweeps.push_back(std::move(concrete));

  const std::string json1 = dump_experiment_spec(spec);
  const ExperimentSpec back = parse_experiment_spec(json1);
  EXPECT_EQ(dump_experiment_spec(back), json1);
  EXPECT_EQ(back.name, "fixture");
  ASSERT_NE(back.find("a"), nullptr);
  ASSERT_NE(back.find("b"), nullptr);
  EXPECT_EQ(back.find("a")->size(), 4u);
  EXPECT_EQ(back.find("b")->expand()[0].algorithm, "quorum");
}

// --- rejection with path-qualified errors ------------------------------------

std::string minimal_spec(const std::string& config_extra) {
  return R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
             "base_seed": "1", "scenarios": [{"algorithm": "simple",
             "config": {"num_ants": 8, "qualities": [1])" +
         config_extra + "}}]}]}";
}

void expect_spec_error(const std::string& text, const std::string& path_part,
                       const std::string& message_part = "") {
  try {
    (void)parse_experiment_spec(text);
    FAIL() << "expected SpecError for " << path_part;
  } catch (const SpecError& e) {
    EXPECT_NE(e.path().find(path_part), std::string::npos)
        << "path was: " << e.path();
    if (!message_part.empty()) {
      EXPECT_NE(std::string(e.what()).find(message_part), std::string::npos)
          << e.what();
    }
  }
}

TEST(SpecErrors, UnknownKeysAreRejectedWithTheirFullPath) {
  expect_spec_error(minimal_spec(R"(, "bogus": 3)"),
                    "spec.sweeps[0].scenarios[0].config.bogus", "unknown key");
  expect_spec_error(minimal_spec(R"(, "noise": {"count_sgima": 0.5})"),
                    "config.noise.count_sgima", "unknown key");
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [], "extra": true})", "spec.extra",
      "unknown key");
}

TEST(SpecErrors, TypeEnumAndRangeProblemsNameTheElement) {
  expect_spec_error(minimal_spec(R"(, "pairing": "osmosis")"),
                    "config.pairing", "unknown pairing");
  expect_spec_error(minimal_spec(R"(, "engine": "warp")"), "config.engine",
                    "unknown engine");
  expect_spec_error(minimal_spec(R"(, "skip_probability": 1.5)"),
                    "config.skip_probability", "outside");
  expect_spec_error(minimal_spec(R"(, "max_rounds": "many")"),
                    "config.max_rounds", "number");
  // Unknown algorithm names the registry contents.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "scenarios": [{"algorithm": "martian",
          "config": {"num_ants": 8, "qualities": [1]}}]}]})",
      "scenarios[0].algorithm", "unknown algorithm");
  // Unknown param key in a params object.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "scenarios": [{"algorithm": "simple",
          "config": {"num_ants": 8, "qualities": [1]},
          "params": {"quorum_fractoin": 0.5}}]}]})",
      "params.quorum_fractoin", "unknown key");
}

TEST(SpecErrors, ConvergenceToleranceIsHalfOpen) {
  // [0, 1): at 1 one committed ant would count as agreement, so
  // Simulation refuses it and the reader does too, at the field's path.
  expect_spec_error(minimal_spec(R"(, "convergence_tolerance": 1)"),
                    "config.convergence_tolerance", "outside [0, 1)");
  expect_spec_error(minimal_spec(R"(, "convergence_tolerance": -0.5)"),
                    "config.convergence_tolerance", "outside [0, 1)");
  EXPECT_NO_THROW((void)parse_experiment_spec(
      minimal_spec(R"(, "convergence_tolerance": 0.999)")));
}

TEST(SpecErrors, FaultPlansTheSamplerRefusesAreRejectedAtTheirPath) {
  // env::FaultPlan::sample refuses a crash horizon of 0 and fractions
  // summing past 1 (its two victim sets are disjoint); the reader refuses
  // them first, at the field's path, instead of the first trial throwing
  // ContractViolation. A concrete scenario:
  expect_spec_error(minimal_spec(R"(, "faults": {"crash_horizon": 0})"),
                    "config.faults.crash_horizon", ">= 1");
  expect_spec_error(
      minimal_spec(
          R"(, "faults": {"crash_fraction": 0.75, "byzantine_fraction": 0.5})"),
      "sweeps[0].scenarios[0].config.faults", "exceeds 1");
  EXPECT_NO_THROW((void)parse_experiment_spec(minimal_spec(
      R"(, "faults": {"crash_fraction": 0.5, "byzantine_fraction": 0.5,
                      "crash_horizon": 1})")));
  // A sweep's base config:
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "base": {"algorithm": "simple", "config": {
            "num_ants": 8, "qualities": [1],
            "faults": {"crash_fraction": 0.75, "byzantine_fraction": 0.5}}},
          "axes": [{"kind": "colony_sizes", "values": [8, 16]}]}]})",
      "sweeps[0].base.config.faults", "exceeds 1");
  // A sweep whose crash_fractions axis crosses 1 over the base's
  // Byzantine fraction: the base alone is fine, its second cell is not.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "base": {"algorithm": "simple", "config": {
            "num_ants": 8, "qualities": [1],
            "faults": {"byzantine_fraction": 0.5}}},
          "axes": [{"kind": "crash_fractions", "values": [0.25, 0.75]}]}]})",
      "sweeps[0]", "exceeds 1");
}

TEST(SpecErrors, StructuralProblemsAreCaught) {
  // Declarative and concrete forms are mutually exclusive.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "scenarios": [],
          "base": {"algorithm": "simple", "config": {}}}]})",
      "sweeps[0]", "not both");
  // Unsupported version.
  expect_spec_error(R"({"anthill_spec": 99, "sweeps": []})", "anthill_spec",
                    "unsupported");
  // Duplicate sweep names.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [
          {"name": "x", "trials": 1, "base_seed": 1, "scenarios": []},
          {"name": "x", "trials": 1, "base_seed": 1, "scenarios": []}]})",
      "sweeps[1]", "duplicate");
  // Unknown axis kind.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "base": {"algorithm": "simple", "config": {}},
          "axes": [{"kind": "moon_phases", "values": [1]}]}]})",
      "axes[0].kind", "unknown axis kind");
  // Trials beyond 2^53 would be UB to cast; rejected up front.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 2e19,
          "base_seed": 1, "scenarios": []}]})",
      "sweeps[0].trials", "2^53");
}

TEST(SpecErrors, UnrunnableExpandedSweepIsRejectedWithAPath) {
  // A base config may be incomplete only if the axes complete it; a
  // sweep that never sets n or k must fail at parse with a path, not
  // abort deep in the engine on a contract check.
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "base": {"algorithm": "simple", "config": {}},
          "axes": [{"kind": "count_noise", "values": [0.5]}]}]})",
      "sweeps[0]", "no colony size");
  expect_spec_error(
      R"({"anthill_spec": 1, "sweeps": [{"name": "x", "trials": 1,
          "base_seed": 1, "base": {"algorithm": "simple", "config": {}},
          "axes": [{"kind": "colony_sizes", "values": [64]}]}]})",
      "sweeps[0]", "no candidate nests");
}

// --- identity / fingerprint contract ----------------------------------------

TEST(IdentityJson, ExcludesPresentationAndPerTrialFields) {
  const Scenario base = Scenario::of("a", core::AlgorithmKind::kSimple,
                                     test::small_config(64, 4, 2));
  Scenario other = base;
  other.name = "renamed";
  other.axes.push_back({"n", 64.0, "64"});
  other.config.seed = 999;
  other.config.engine = core::EngineKind::kScalar;
  other.config.enforce_model = !base.config.enforce_model;
  other.config.record_trajectories = !base.config.record_trajectories;
  EXPECT_EQ(scenario_identity_json(base), scenario_identity_json(other));

  other = base;
  other.params.idle_search_prob += 0.125;  // table-driven params ARE identity
  EXPECT_NE(scenario_identity_json(base), scenario_identity_json(other));
  EXPECT_NE(scenario_fingerprint(base), scenario_fingerprint(other));
}

TEST(IdentityJson, FingerprintIsTheHashOfTheCanonicalBytes) {
  const Scenario sc = Scenario::of("a", core::AlgorithmKind::kOptimal,
                                   test::small_config(128, 4, 2));
  util::Fnv64 h;
  h.str("hh.scenario.v2");
  h.str(scenario_identity_json(sc));
  EXPECT_EQ(scenario_fingerprint(sc), h.digest());
}

}  // namespace
}  // namespace hh::analysis
