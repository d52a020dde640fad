#include "analysis/spec.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "core/registry.hpp"
#include "util/contracts.hpp"

namespace hh::analysis {

using util::Json;

SpecError::SpecError(std::string path, const std::string& message)
    : std::runtime_error(message + " (at " + path + ")"),
      path_(std::move(path)) {}

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw SpecError(path, message);
}

std::string at(const std::string& path, std::string_view key) {
  return path + "." + std::string(key);
}

std::string at(const std::string& path, std::size_t index) {
  return path + "[" + std::to_string(index) + "]";
}

// --- typed readers ----------------------------------------------------------

double read_number(const Json& json, const std::string& path) {
  if (!json.is_number()) fail(path, "expected a number");
  return json.as_number();
}

double read_number_in(const Json& json, const std::string& path, double lo,
                      double hi) {
  const double v = read_number(json, path);
  if (!(v >= lo && v <= hi)) {
    fail(path, "value " + util::format_double(v) + " is outside [" +
                   util::format_double(lo) + ", " + util::format_double(hi) +
                   "]");
  }
  return v;
}

std::uint32_t read_u32(const Json& json, const std::string& path) {
  const double v = read_number(json, path);
  if (v < 0.0 || v > 4294967295.0 || v != std::floor(v)) {
    fail(path, "expected an unsigned 32-bit integer");
  }
  return static_cast<std::uint32_t>(v);
}

/// Canonical 64-bit unsigned: a decimal string (doubles cannot carry all
/// 64 bits); a plain non-negative integer number is accepted up to 2^53.
std::uint64_t read_u64(const Json& json, const std::string& path) {
  if (json.is_string()) {
    const std::string& s = json.as_string();
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
      fail(path, "expected a decimal unsigned integer string");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno == ERANGE || end != s.c_str() + s.size()) {
      fail(path, "unsigned integer out of 64-bit range");
    }
    return v;
  }
  if (json.is_number()) {
    const double v = json.as_number();
    if (v < 0.0 || v != std::floor(v) || v > 9007199254740992.0) {
      fail(path,
           "expected an unsigned integer (use a decimal string for values "
           "beyond 2^53)");
    }
    return static_cast<std::uint64_t>(v);
  }
  fail(path, "expected an unsigned integer (number or decimal string)");
}

Json u64_json(std::uint64_t v) { return Json(std::to_string(v)); }

bool read_bool(const Json& json, const std::string& path) {
  if (!json.is_bool()) fail(path, "expected true or false");
  return json.as_bool();
}

const std::string& read_string(const Json& json, const std::string& path) {
  if (!json.is_string()) fail(path, "expected a string");
  return json.as_string();
}

const Json::Array& read_array(const Json& json, const std::string& path) {
  if (!json.is_array()) fail(path, "expected an array");
  return json.as_array();
}

std::vector<double> read_numbers(const Json& json, const std::string& path,
                                 double lo, double hi) {
  const Json::Array& array = read_array(json, path);
  std::vector<double> out;
  out.reserve(array.size());
  for (std::size_t i = 0; i < array.size(); ++i) {
    out.push_back(read_number_in(array[i], at(path, i), lo, hi));
  }
  return out;
}

std::vector<std::uint32_t> read_u32s(const Json& json,
                                     const std::string& path) {
  const Json::Array& array = read_array(json, path);
  std::vector<std::uint32_t> out;
  out.reserve(array.size());
  for (std::size_t i = 0; i < array.size(); ++i) {
    out.push_back(read_u32(array[i], at(path, i)));
  }
  return out;
}

/// Object traversal that REJECTS unknown keys: every key must be consumed
/// through get()/require() before finish(), or the leftover key's full
/// path lands in a SpecError. The backbone of "a typo fails loudly".
class ObjectReader {
 public:
  ObjectReader(const Json& json, std::string path) : path_(std::move(path)) {
    if (!json.is_object()) fail(path_, "expected an object");
    object_ = &json.as_object();
    consumed_.assign(object_->size(), false);
  }

  [[nodiscard]] const std::string& path() const { return path_; }

  /// The member named `key`, or nullptr (marks the key consumed).
  const Json* get(std::string_view key) {
    for (std::size_t i = 0; i < object_->size(); ++i) {
      if ((*object_)[i].first == key) {
        consumed_[i] = true;
        return &(*object_)[i].second;
      }
    }
    return nullptr;
  }

  const Json& require(std::string_view key) {
    const Json* member = get(key);
    if (member == nullptr) {
      fail(at(path_, key), "missing required key");
    }
    return *member;
  }

  /// Call after all reads: any unconsumed key is an error.
  void finish() const {
    for (std::size_t i = 0; i < object_->size(); ++i) {
      if (!consumed_[i]) {
        fail(at(path_, (*object_)[i].first), "unknown key");
      }
    }
  }

 private:
  const Json::Object* object_;
  std::string path_;
  std::vector<bool> consumed_;
};

// --- enum codecs ------------------------------------------------------------

env::PairingKind pairing_from_name(const std::string& name,
                                   const std::string& path) {
  if (const auto kind = env::pairing_from_name(name)) return *kind;
  fail(path, "unknown pairing '" + name +
                 "' (expected \"permutation\", \"uniform-proposal\", or "
                 "\"counter-lottery\")");
}

env::BackendKind backend_from_name(const std::string& name,
                                   const std::string& path) {
  if (const auto kind = env::backend_from_name(name)) return *kind;
  fail(path, "unknown environment backend '" + name +
                 "' (expected \"home-nest\" or \"lattice\")");
}

core::EngineKind engine_from_name(const std::string& name,
                                  const std::string& path) {
  for (const core::EngineKind kind :
       {core::EngineKind::kAuto, core::EngineKind::kScalar,
        core::EngineKind::kPacked}) {
    if (core::engine_name(kind) == name) return kind;
  }
  fail(path, "unknown engine '" + name +
                 "' (expected \"auto\", \"scalar\", or \"packed\")");
}

// --- config / params --------------------------------------------------------

Json qualities_json(const std::vector<double>& qualities) {
  Json out{Json::Array{}};
  for (const double q : qualities) out.push_back(Json(q));
  return out;
}

/// Full lattice world block (every field, fixed order).
Json lattice_to_json(const env::LatticeConfig& lattice) {
  Json j{Json::Object{}};
  j.set("width", Json(static_cast<double>(lattice.width)));
  j.set("height", Json(static_cast<double>(lattice.height)));
  j.set("nest_site", Json(static_cast<double>(lattice.nest_site)));
  j.set("target_site", Json(static_cast<double>(lattice.target_site)));
  j.set("persist_fast", Json(lattice.persist_fast));
  j.set("persist_slow", Json(lattice.persist_slow));
  j.set("fast_fraction", Json(lattice.fast_fraction));
  return j;
}

env::LatticeConfig lattice_from_json(const Json& json,
                                     const std::string& path) {
  ObjectReader reader(json, path);
  env::LatticeConfig lattice;
  if (const Json* v = reader.get("width")) {
    lattice.width = read_u32(*v, at(path, "width"));
  }
  if (const Json* v = reader.get("height")) {
    lattice.height = read_u32(*v, at(path, "height"));
  }
  if (const Json* v = reader.get("nest_site")) {
    lattice.nest_site = read_u32(*v, at(path, "nest_site"));
  }
  if (const Json* v = reader.get("target_site")) {
    lattice.target_site = read_u32(*v, at(path, "target_site"));
  }
  if (const Json* v = reader.get("persist_fast")) {
    lattice.persist_fast =
        read_number_in(*v, at(path, "persist_fast"), 0.0, 1.0);
  }
  if (const Json* v = reader.get("persist_slow")) {
    lattice.persist_slow =
        read_number_in(*v, at(path, "persist_slow"), 0.0, 1.0);
  }
  if (const Json* v = reader.get("fast_fraction")) {
    lattice.fast_fraction =
        read_number_in(*v, at(path, "fast_fraction"), 0.0, 1.0);
  }
  reader.finish();
  return lattice;
}

/// Why env::FaultPlan::sample would refuse the fractions of `faults`
/// ("" when it accepts them): its crash and Byzantine victim sets are
/// disjoint, so the two fractions may sum to at most 1.
std::string fault_fractions_error(const env::FaultConfig& faults) {
  if (faults.crash_fraction + faults.byzantine_fraction <= 1.0) return {};
  return "crash_fraction " + util::format_double(faults.crash_fraction) +
         " + byzantine_fraction " +
         util::format_double(faults.byzantine_fraction) +
         " exceeds 1 (crashed and Byzantine ants are disjoint sets)";
}

/// Full canonical config (every field, fixed order), as object members.
Json::Object config_members(const core::SimulationConfig& config) {
  Json::Object m;
  m.emplace_back("num_ants", Json(static_cast<double>(config.num_ants)));
  m.emplace_back("qualities", qualities_json(config.qualities));
  m.emplace_back("seed", u64_json(config.seed));
  m.emplace_back("max_rounds", Json(static_cast<double>(config.max_rounds)));
  m.emplace_back("stability_rounds",
                 Json(static_cast<double>(config.stability_rounds)));
  m.emplace_back("convergence_tolerance", Json(config.convergence_tolerance));
  m.emplace_back("enforce_model", Json(config.enforce_model));
  m.emplace_back("record_trajectories", Json(config.record_trajectories));
  m.emplace_back("skip_probability", Json(config.skip_probability));
  Json noise{Json::Object{}};
  noise.set("count_sigma", Json(config.noise.count_sigma));
  noise.set("quality_flip_prob", Json(config.noise.quality_flip_prob));
  noise.set("quality_sigma", Json(config.noise.quality_sigma));
  m.emplace_back("noise", std::move(noise));
  Json faults{Json::Object{}};
  faults.set("crash_fraction", Json(config.faults.crash_fraction));
  faults.set("byzantine_fraction", Json(config.faults.byzantine_fraction));
  faults.set("crash_horizon",
             Json(static_cast<double>(config.faults.crash_horizon)));
  m.emplace_back("faults", std::move(faults));
  m.emplace_back("pairing", Json(env::pairing_name(config.pairing)));
  m.emplace_back("engine", Json(core::engine_name(config.engine)));
  // Backend vocabulary is ADDITIVE: home-nest configs serialize exactly
  // as they did pre-seam (no env_backend key), so every existing spec
  // file and fingerprint is untouched. New worlds add their block.
  if (config.env_backend != env::BackendKind::kHomeNest) {
    m.emplace_back("env_backend", Json(env::backend_name(config.env_backend)));
    m.emplace_back("lattice", lattice_to_json(config.lattice));
  }
  return m;
}

Json config_to_json(const core::SimulationConfig& config) {
  return Json(config_members(config));
}

/// Whether a config must be runnable on its own. A SCENARIO config must
/// be (n >= 1, k >= 1); a sweep BASE config may leave num_ants/qualities
/// unset when an axis (colony_sizes, nest_counts, ...) fills them.
enum class ConfigRole : std::uint8_t { kScenario, kBase };

core::SimulationConfig config_from_json(const Json& json,
                                        const std::string& path,
                                        ConfigRole role) {
  ObjectReader reader(json, path);
  core::SimulationConfig config;
  const Json* num_ants = role == ConfigRole::kScenario
                             ? &reader.require("num_ants")
                             : reader.get("num_ants");
  if (num_ants != nullptr) {
    config.num_ants = read_u32(*num_ants, at(path, "num_ants"));
  }
  if (role == ConfigRole::kScenario && config.num_ants == 0) {
    fail(at(path, "num_ants"), "must be >= 1");
  }
  const Json* qualities = role == ConfigRole::kScenario
                              ? &reader.require("qualities")
                              : reader.get("qualities");
  if (qualities != nullptr) {
    const std::string qpath = at(path, "qualities");
    const Json::Array& array = read_array(*qualities, qpath);
    if (role == ConfigRole::kScenario && array.empty()) {
      fail(qpath, "at least one candidate nest is required");
    }
    config.qualities.reserve(array.size());
    for (std::size_t i = 0; i < array.size(); ++i) {
      config.qualities.push_back(
          read_number_in(array[i], at(qpath, i), 0.0, 1.0));
    }
  }
  if (const Json* v = reader.get("seed")) {
    config.seed = read_u64(*v, at(path, "seed"));
  }
  if (const Json* v = reader.get("max_rounds")) {
    config.max_rounds = read_u32(*v, at(path, "max_rounds"));
  }
  if (const Json* v = reader.get("stability_rounds")) {
    config.stability_rounds = read_u32(*v, at(path, "stability_rounds"));
  }
  if (const Json* v = reader.get("convergence_tolerance")) {
    // [0, 1): at 1 one committed ant would count as agreement.
    const std::string tpath = at(path, "convergence_tolerance");
    const double tolerance = read_number(*v, tpath);
    if (!(tolerance >= 0.0 && tolerance < 1.0)) {
      fail(tpath, "value " + util::format_double(tolerance) +
                      " is outside [0, 1)");
    }
    config.convergence_tolerance = tolerance;
  }
  if (const Json* v = reader.get("enforce_model")) {
    config.enforce_model = read_bool(*v, at(path, "enforce_model"));
  }
  if (const Json* v = reader.get("record_trajectories")) {
    config.record_trajectories =
        read_bool(*v, at(path, "record_trajectories"));
  }
  if (const Json* v = reader.get("skip_probability")) {
    config.skip_probability =
        read_number_in(*v, at(path, "skip_probability"), 0.0, 1.0);
  }
  if (const Json* v = reader.get("noise")) {
    const std::string npath = at(path, "noise");
    ObjectReader noise(*v, npath);
    if (const Json* n = noise.get("count_sigma")) {
      config.noise.count_sigma = read_number_in(
          *n, at(npath, "count_sigma"), 0.0,
          std::numeric_limits<double>::max());
    }
    if (const Json* n = noise.get("quality_flip_prob")) {
      config.noise.quality_flip_prob =
          read_number_in(*n, at(npath, "quality_flip_prob"), 0.0, 1.0);
    }
    if (const Json* n = noise.get("quality_sigma")) {
      config.noise.quality_sigma =
          read_number_in(*n, at(npath, "quality_sigma"), 0.0,
                         std::numeric_limits<double>::max());
    }
    noise.finish();
  }
  if (const Json* v = reader.get("faults")) {
    const std::string fpath = at(path, "faults");
    ObjectReader faults(*v, fpath);
    if (const Json* f = faults.get("crash_fraction")) {
      config.faults.crash_fraction =
          read_number_in(*f, at(fpath, "crash_fraction"), 0.0, 1.0);
    }
    if (const Json* f = faults.get("byzantine_fraction")) {
      config.faults.byzantine_fraction =
          read_number_in(*f, at(fpath, "byzantine_fraction"), 0.0, 1.0);
    }
    if (const Json* f = faults.get("crash_horizon")) {
      config.faults.crash_horizon =
          read_u32(*f, at(fpath, "crash_horizon"));
      if (config.faults.crash_horizon == 0) {
        fail(at(fpath, "crash_horizon"),
             "must be >= 1 (crashes land in rounds [1, crash_horizon])");
      }
    }
    faults.finish();
    if (const std::string error = fault_fractions_error(config.faults);
        !error.empty()) {
      fail(fpath, error);
    }
  }
  if (const Json* v = reader.get("pairing")) {
    config.pairing = pairing_from_name(
        read_string(*v, at(path, "pairing")), at(path, "pairing"));
  }
  if (const Json* v = reader.get("engine")) {
    config.engine = engine_from_name(read_string(*v, at(path, "engine")),
                                     at(path, "engine"));
  }
  if (const Json* v = reader.get("env_backend")) {
    config.env_backend = backend_from_name(
        read_string(*v, at(path, "env_backend")), at(path, "env_backend"));
  }
  if (const Json* v = reader.get("lattice")) {
    if (config.env_backend != env::BackendKind::kLattice) {
      fail(at(path, "lattice"),
           "lattice world block given but env_backend is '" +
               std::string(env::backend_name(config.env_backend)) +
               "' (set \"env_backend\": \"lattice\")");
    }
    config.lattice = lattice_from_json(*v, at(path, "lattice"));
  }
  reader.finish();
  return config;
}

/// Canonical params: every algorithm_param_table() key, table order. The
/// table IS the schema — a field added to AlgorithmParams shows up here
/// (and in identity fingerprints) by adding its table row.
Json params_to_json(const core::AlgorithmParams& params) {
  Json j{Json::Object{}};
  for (const core::ParamInfo& info : core::algorithm_param_table()) {
    j.set(std::string(info.key), Json(params.*(info.field)));
  }
  return j;
}

core::AlgorithmParams params_from_json(const Json& json,
                                       const std::string& path) {
  ObjectReader reader(json, path);
  core::AlgorithmParams params;
  for (const core::ParamInfo& info : core::algorithm_param_table()) {
    if (const Json* v = reader.get(info.key)) {
      params.*(info.field) = read_number_in(*v, at(path, std::string(info.key)),
                                            info.min_value, info.max_value);
    }
  }
  reader.finish();  // a key outside the table is a typo, not a tunable
  return params;
}

std::string read_algorithm(const Json& json, const std::string& path) {
  const std::string& name = read_string(json, path);
  if (!core::AlgorithmRegistry::instance().contains(name)) {
    fail(path, "unknown algorithm '" + name +
                   "' (registered: " + core::known_algorithms() + ")");
  }
  return name;
}

// --- scenario ---------------------------------------------------------------

Json axis_value_to_json(const AxisValue& axis) {
  Json j{Json::Object{}};
  j.set("axis", Json(axis.axis));
  j.set("value", Json(axis.value));
  j.set("label", Json(axis.label));
  return j;
}

AxisValue axis_value_from_json(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  AxisValue axis;
  axis.axis = read_string(reader.require("axis"), at(path, "axis"));
  axis.value = read_number(reader.require("value"), at(path, "value"));
  if (const Json* v = reader.get("label")) {
    axis.label = read_string(*v, at(path, "label"));
  }
  reader.finish();
  return axis;
}

/// The shared core of scenario_to_json (full form) and the sweep base
/// (no name/axes).
void emit_scenario_body(Json& j, const Scenario& scenario) {
  j.set("algorithm", Json(scenario.algorithm));
  j.set("config", config_to_json(scenario.config));
  j.set("params", params_to_json(scenario.params));
}

}  // namespace

Json scenario_to_json(const Scenario& scenario) {
  Json j{Json::Object{}};
  j.set("name", Json(scenario.name));
  emit_scenario_body(j, scenario);
  Json axes{Json::Array{}};
  for (const AxisValue& axis : scenario.axes) {
    axes.push_back(axis_value_to_json(axis));
  }
  j.set("axes", std::move(axes));
  return j;
}

Scenario scenario_from_json(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  Scenario scenario;
  if (const Json* v = reader.get("name")) {
    scenario.name = read_string(*v, at(path, "name"));
  }
  scenario.algorithm =
      read_algorithm(reader.require("algorithm"), at(path, "algorithm"));
  scenario.config = config_from_json(reader.require("config"),
                                     at(path, "config"), ConfigRole::kScenario);
  if (const Json* v = reader.get("params")) {
    scenario.params = params_from_json(*v, at(path, "params"));
  }
  if (const Json* v = reader.get("axes")) {
    const std::string apath = at(path, "axes");
    const Json::Array& array = read_array(*v, apath);
    for (std::size_t i = 0; i < array.size(); ++i) {
      scenario.axes.push_back(axis_value_from_json(array[i], at(apath, i)));
    }
  }
  reader.finish();
  return scenario;
}

std::string scenario_identity_json(const Scenario& scenario) {
  // EXACTLY the outcome-determining fields (see scenario_fingerprint's
  // contract): the canonical config minus what cannot change an outcome,
  // in config_to_json's key order, so a new config field joins the
  // identity unless it is excluded here on purpose. Out: the seed (per
  // trial), the engine (the §1 equivalence contract shares cache across
  // engines), enforce_model and record_trajectories (side-effect-free);
  // the scenario's name and axes (presentation) are never emitted.
  constexpr std::array<std::string_view, 4> kNotIdentity = {
      "seed", "engine", "enforce_model", "record_trajectories"};
  Json::Object config = config_members(scenario.config);
  std::erase_if(config, [&](const auto& member) {
    return std::find(kNotIdentity.begin(), kNotIdentity.end(),
                     member.first) != kNotIdentity.end();
  });

  Json j{Json::Object{}};
  j.set("algorithm", Json(scenario.algorithm));
  j.set("config", Json(std::move(config)));
  j.set("params", params_to_json(scenario.params));
  return util::dump_json(j, /*indent=*/0);
}

// --- sweep entries ----------------------------------------------------------

namespace {

Json axis_to_json(const SweepSpec::Axis& axis) {
  const SweepSpec::AxisDesc& desc = axis.desc;
  HH_EXPECTS(!desc.kind.empty());
  Json j{Json::Object{}};
  j.set("kind", Json(desc.kind));
  if (desc.kind == "algorithms" || desc.kind == "pairings" ||
      desc.kind == "engines") {
    Json names{Json::Array{}};
    for (const std::string& label : desc.labels) names.push_back(Json(label));
    j.set("names", std::move(names));
  } else if (desc.kind == "colony_nest_pairs") {
    Json pairs{Json::Array{}};
    for (const auto& [n, k] : desc.pairs) {
      Json pair{Json::Array{}};
      pair.push_back(Json(static_cast<double>(n)));
      pair.push_back(Json(static_cast<double>(k)));
      pairs.push_back(std::move(pair));
    }
    j.set("pairs", std::move(pairs));
    j.set("bad_fraction", Json(desc.fraction));
  } else if (desc.kind == "quality_sets") {
    Json sets{Json::Array{}};
    for (std::size_t i = 0; i < desc.labels.size(); ++i) {
      Json set{Json::Object{}};
      set.set("label", Json(desc.labels[i]));
      set.set("qualities", qualities_json(desc.vectors[i]));
      sets.push_back(std::move(set));
    }
    j.set("sets", std::move(sets));
  } else {
    if (desc.kind == "param_values") j.set("name", Json(desc.labels.at(0)));
    Json values{Json::Array{}};
    for (const double v : desc.values) values.push_back(Json(v));
    j.set("values", std::move(values));
    if (desc.kind == "nest_counts") j.set("bad_fraction", Json(desc.fraction));
  }
  return j;
}

void axis_from_json(SweepSpec& spec, const Json& json,
                    const std::string& path) {
  ObjectReader reader(json, path);
  const std::string kind = read_string(reader.require("kind"), at(path, "kind"));
  const double kInf = std::numeric_limits<double>::max();
  if (kind == "algorithms") {
    const std::string npath = at(path, "names");
    const Json::Array& array = read_array(reader.require("names"), npath);
    std::vector<std::string> names;
    names.reserve(array.size());
    for (std::size_t i = 0; i < array.size(); ++i) {
      names.push_back(read_algorithm(array[i], at(npath, i)));
    }
    spec.algorithms(std::move(names));
  } else if (kind == "pairings") {
    const std::string npath = at(path, "names");
    const Json::Array& array = read_array(reader.require("names"), npath);
    std::vector<env::PairingKind> kinds;
    for (std::size_t i = 0; i < array.size(); ++i) {
      kinds.push_back(pairing_from_name(
          read_string(array[i], at(npath, i)), at(npath, i)));
    }
    spec.pairings(std::move(kinds));
  } else if (kind == "engines") {
    const std::string npath = at(path, "names");
    const Json::Array& array = read_array(reader.require("names"), npath);
    std::vector<core::EngineKind> kinds;
    for (std::size_t i = 0; i < array.size(); ++i) {
      kinds.push_back(engine_from_name(
          read_string(array[i], at(npath, i)), at(npath, i)));
    }
    spec.engines(std::move(kinds));
  } else if (kind == "colony_sizes") {
    spec.colony_sizes(
        read_u32s(reader.require("values"), at(path, "values")));
  } else if (kind == "nest_counts") {
    double bad_fraction = 0.5;
    if (const Json* v = reader.get("bad_fraction")) {
      bad_fraction = read_number_in(*v, at(path, "bad_fraction"), 0.0, 1.0);
    }
    spec.nest_counts(read_u32s(reader.require("values"), at(path, "values")),
                     bad_fraction);
  } else if (kind == "colony_nest_pairs") {
    double bad_fraction = 0.5;
    if (const Json* v = reader.get("bad_fraction")) {
      bad_fraction = read_number_in(*v, at(path, "bad_fraction"), 0.0, 1.0);
    }
    const std::string ppath = at(path, "pairs");
    const Json::Array& array = read_array(reader.require("pairs"), ppath);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::size_t i = 0; i < array.size(); ++i) {
      const std::string epath = at(ppath, i);
      const Json::Array& pair = read_array(array[i], epath);
      if (pair.size() != 2) fail(epath, "expected an [n, k] pair");
      pairs.emplace_back(read_u32(pair[0], at(epath, std::size_t{0})),
                         read_u32(pair[1], at(epath, std::size_t{1})));
    }
    spec.colony_nest_pairs(std::move(pairs), bad_fraction);
  } else if (kind == "quality_sets") {
    const std::string spath = at(path, "sets");
    const Json::Array& array = read_array(reader.require("sets"), spath);
    std::vector<std::pair<std::string, std::vector<double>>> sets;
    for (std::size_t i = 0; i < array.size(); ++i) {
      const std::string epath = at(spath, i);
      ObjectReader set(array[i], epath);
      std::string label =
          read_string(set.require("label"), at(epath, "label"));
      std::vector<double> qualities = read_numbers(
          set.require("qualities"), at(epath, "qualities"), 0.0, 1.0);
      set.finish();
      sets.emplace_back(std::move(label), std::move(qualities));
    }
    spec.quality_sets(std::move(sets));
  } else if (kind == "count_noise") {
    spec.count_noise(
        read_numbers(reader.require("values"), at(path, "values"), 0.0, kInf));
  } else if (kind == "quality_flip") {
    spec.quality_flip(
        read_numbers(reader.require("values"), at(path, "values"), 0.0, 1.0));
  } else if (kind == "crash_fractions") {
    spec.crash_fractions(
        read_numbers(reader.require("values"), at(path, "values"), 0.0, 1.0));
  } else if (kind == "byzantine_fractions") {
    spec.byzantine_fractions(
        read_numbers(reader.require("values"), at(path, "values"), 0.0, 1.0));
  } else if (kind == "skip_probabilities") {
    spec.skip_probabilities(
        read_numbers(reader.require("values"), at(path, "values"), 0.0, 1.0));
  } else if (kind == "n_estimate_errors") {
    spec.n_estimate_errors(
        read_numbers(reader.require("values"), at(path, "values"), 0.0, 1.0));
  } else if (kind == "quorum_fractions") {
    spec.quorum_fractions(
        read_numbers(reader.require("values"), at(path, "values"), 0.0, 1.0));
  } else if (kind == "param_values") {
    const std::string key =
        read_string(reader.require("name"), at(path, "name"));
    const core::ParamInfo* info = core::find_param(key);
    if (info == nullptr) {
      fail(at(path, "name"),
           "unknown parameter '" + key + "' (known: " + core::known_params() +
               ")");
    }
    spec.param_values(key,
                      read_numbers(reader.require("values"), at(path, "values"),
                                   info->min_value, info->max_value));
  } else {
    fail(at(path, "kind"), "unknown axis kind '" + kind + "'");
  }
  reader.finish();
}

}  // namespace

std::vector<Scenario> SweepEntry::expand() const {
  return sweep ? sweep->expand() : scenarios;
}

std::size_t SweepEntry::size() const {
  return sweep ? sweep->size() : scenarios.size();
}

const SweepEntry* ExperimentSpec::find(std::string_view sweep) const {
  for (const SweepEntry& entry : sweeps) {
    if (entry.name == sweep) return &entry;
  }
  return nullptr;
}

Json sweep_entry_to_json(const SweepEntry& entry) {
  Json j{Json::Object{}};
  j.set("name", Json(entry.name));
  j.set("trials", Json(static_cast<double>(entry.trials)));
  j.set("base_seed", u64_json(entry.base_seed));
  if (entry.sweep && entry.sweep->serializable()) {
    // The SweepSpec's own name prefixes every expanded scenario's name;
    // it need not equal the entry name, so it is carried explicitly.
    j.set("sweep_name", Json(entry.sweep->name()));
    Json base{Json::Object{}};
    emit_scenario_body(base, entry.sweep->base_scenario());
    j.set("base", std::move(base));
    Json axes{Json::Array{}};
    for (const SweepSpec::Axis& axis : entry.sweep->axes()) {
      axes.push_back(axis_to_json(axis));
    }
    j.set("axes", std::move(axes));
  } else {
    // Custom-mutator sweeps (or entries declared concrete) serialize as
    // the expanded scenario list — heavier, but loss-free.
    Json scenarios{Json::Array{}};
    for (const Scenario& scenario : entry.expand()) {
      scenarios.push_back(scenario_to_json(scenario));
    }
    j.set("scenarios", std::move(scenarios));
  }
  return j;
}

SweepEntry sweep_entry_from_json(const Json& json, const std::string& path) {
  ObjectReader reader(json, path);
  SweepEntry entry;
  entry.name = read_string(reader.require("name"), at(path, "name"));
  {
    const double trials =
        read_number(reader.require("trials"), at(path, "trials"));
    // Upper bound before the cast: a double beyond 2^53 is not exactly
    // countable anyway, and casting one beyond SIZE_MAX would be UB.
    if (trials < 1.0 || trials != std::floor(trials) ||
        trials > 9007199254740992.0) {
      fail(at(path, "trials"), "expected a positive integer (at most 2^53)");
    }
    entry.trials = static_cast<std::size_t>(trials);
  }
  entry.base_seed = read_u64(reader.require("base_seed"), at(path, "base_seed"));
  std::string sweep_name = entry.name;
  if (const Json* v = reader.get("sweep_name")) {
    sweep_name = read_string(*v, at(path, "sweep_name"));
  }
  const Json* base = reader.get("base");
  const Json* axes = reader.get("axes");
  const Json* scenarios = reader.get("scenarios");
  if (scenarios != nullptr && (base != nullptr || axes != nullptr)) {
    fail(path, "a sweep is either declarative (base + axes) or concrete "
               "(scenarios), not both");
  }
  if (scenarios != nullptr) {
    const std::string spath = at(path, "scenarios");
    const Json::Array& array = read_array(*scenarios, spath);
    for (std::size_t i = 0; i < array.size(); ++i) {
      entry.scenarios.push_back(scenario_from_json(array[i], at(spath, i)));
    }
  } else if (base != nullptr) {
    const std::string bpath = at(path, "base");
    ObjectReader base_reader(*base, bpath);
    SweepSpec spec(sweep_name);
    spec.algorithm(read_algorithm(base_reader.require("algorithm"),
                                  at(bpath, "algorithm")));
    spec.base(config_from_json(base_reader.require("config"),
                               at(bpath, "config"), ConfigRole::kBase));
    if (const Json* v = base_reader.get("params")) {
      spec.params(params_from_json(*v, at(bpath, "params")));
    }
    base_reader.finish();
    if (axes != nullptr) {
      const std::string apath = at(path, "axes");
      const Json::Array& array = read_array(*axes, apath);
      for (std::size_t i = 0; i < array.size(); ++i) {
        axis_from_json(spec, array[i], at(apath, i));
      }
    }
    // The base may legitimately be incomplete (ConfigRole::kBase) as long
    // as the axes fill the holes — so verify the EXPANDED scenarios are
    // runnable here, with a path-qualified error, instead of letting an
    // n-less sweep abort deep in the engine on a contract check.
    for (const Scenario& expanded : spec.expand()) {
      if (expanded.config.num_ants == 0) {
        fail(path, "scenario '" + expanded.name +
                       "' has no colony size: set base.config.num_ants or "
                       "add a colony_sizes/colony_nest_pairs axis");
      }
      if (expanded.config.qualities.empty()) {
        fail(path, "scenario '" + expanded.name +
                       "' has no candidate nests: set base.config.qualities "
                       "or add a nest_counts/quality_sets axis");
      }
      // A crash_fractions or byzantine_fractions axis can push the sum
      // past 1 where the base config alone does not.
      if (const std::string error =
              fault_fractions_error(expanded.config.faults);
          !error.empty()) {
        fail(path, "scenario '" + expanded.name + "': " + error);
      }
    }
    entry.sweep = std::move(spec);
  } else {
    fail(path, "a sweep needs either \"base\" (+ \"axes\") or \"scenarios\"");
  }
  reader.finish();
  return entry;
}

Json experiment_to_json(const ExperimentSpec& spec) {
  Json j{Json::Object{}};
  j.set("anthill_spec", Json(1.0));
  j.set("name", Json(spec.name));
  Json sweeps{Json::Array{}};
  for (const SweepEntry& entry : spec.sweeps) {
    sweeps.push_back(sweep_entry_to_json(entry));
  }
  j.set("sweeps", std::move(sweeps));
  return j;
}

ExperimentSpec experiment_from_json(const Json& json) {
  const std::string path = "spec";
  ObjectReader reader(json, path);
  const double version =
      read_number(reader.require("anthill_spec"), at(path, "anthill_spec"));
  if (version != 1.0) {
    fail(at(path, "anthill_spec"),
         "unsupported spec version " + util::format_double(version) +
             " (this build reads version 1)");
  }
  ExperimentSpec spec;
  if (const Json* v = reader.get("name")) {
    spec.name = read_string(*v, at(path, "name"));
  }
  const std::string spath = at(path, "sweeps");
  const Json::Array& sweeps = read_array(reader.require("sweeps"), spath);
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    spec.sweeps.push_back(sweep_entry_from_json(sweeps[i], at(spath, i)));
    const std::string& name = spec.sweeps.back().name;
    for (std::size_t j = 0; j + 1 < spec.sweeps.size(); ++j) {
      if (spec.sweeps[j].name == name) {
        fail(at(spath, i), "duplicate sweep name '" + name + "'");
      }
    }
  }
  reader.finish();
  return spec;
}

ExperimentSpec parse_experiment_spec(std::string_view text) {
  return experiment_from_json(util::parse_json(text));
}

std::string dump_experiment_spec(const ExperimentSpec& spec, int indent) {
  return util::dump_json(experiment_to_json(spec), indent);
}

ExperimentSpec load_experiment_spec(const std::string& path) {
  std::string text;
  if (path == "-") {
    std::ostringstream buffer;  // lint: allow-float-fmt (file slurp, no float rendering)
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open spec file '" + path + "'");
    }
    std::ostringstream buffer;  // lint: allow-float-fmt (file slurp, no float rendering)
    buffer << in.rdbuf();
    text = buffer.str();
  }
  try {
    return parse_experiment_spec(text);
  } catch (const util::JsonParseError& e) {
    throw std::runtime_error(std::string(path == "-" ? "<stdin>" : path) +
                             ": " + e.what());
  } catch (const SpecError& e) {
    throw std::runtime_error(std::string(path == "-" ? "<stdin>" : path) +
                             ": " + e.what());
  }
}

}  // namespace hh::analysis
