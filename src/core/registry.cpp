#include "core/registry.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/ant_pack.hpp"
#include "core/idle_search_ant.hpp"
#include "core/walker_ant.hpp"

namespace hh::core {

// --- parameter schema -------------------------------------------------------

namespace {

constexpr std::array<ParamInfo, 5> kParamTable{{
    {"quorum_fraction", &AlgorithmParams::quorum_fraction, 0.0, 1.0,
     "QuorumAnt lock threshold as a fraction of n"},
    {"quorum_tandem_rate", &AlgorithmParams::quorum_tandem_rate, 0.0, 1.0,
     "QuorumAnt pre-quorum recruitment rate scale"},
    {"uniform_recruit_prob", &AlgorithmParams::uniform_recruit_prob, 0.0, 1.0,
     "UniformRecruitAnt constant recruitment probability"},
    {"n_estimate_error", &AlgorithmParams::n_estimate_error, 0.0, 1.0,
     "half-width of each ant's private colony-size belief (Section 6)"},
    {"idle_search_prob", &AlgorithmParams::idle_search_prob, 0.0, 1.0,
     "idle-search: P[a passive ant re-scouts instead of waiting at home]"},
}};

}  // namespace

std::span<const ParamInfo> algorithm_param_table() { return kParamTable; }

const ParamInfo* find_param(std::string_view key) {
  for (const ParamInfo& info : kParamTable) {
    if (info.key == key) return &info;
  }
  return nullptr;
}

// --- built-in specs ---------------------------------------------------------

const std::vector<AlgorithmKind>& all_algorithm_kinds() {
  static const std::vector<AlgorithmKind> kinds = {
      AlgorithmKind::kOptimal,        AlgorithmKind::kOptimalSettle,
      AlgorithmKind::kSimple,         AlgorithmKind::kRateBoosted,
      AlgorithmKind::kQualityAware,   AlgorithmKind::kUniformRecruit,
      AlgorithmKind::kQuorum,
  };
  return kinds;
}

std::optional<AlgorithmKind> algorithm_from_name(std::string_view name) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    if (algorithm_name(kind) == name) return kind;
  }
  return std::nullopt;
}

namespace {

std::string builtin_summary(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kOptimal:
      return "Algorithm 2: O(log n) tournament of nest pairs (Section 4)";
    case AlgorithmKind::kOptimalSettle:
      return "Algorithm 2 + the Section 4.2 settle/termination extension";
    case AlgorithmKind::kSimple:
      return "Algorithm 3: population-proportional feedback, O(k log n)";
    case AlgorithmKind::kRateBoosted:
      return "Section 6 boosted-rate variant (removes the Theta(k) factor)";
    case AlgorithmKind::kQualityAware:
      return "Section 6 non-binary-quality variant";
    case AlgorithmKind::kUniformRecruit:
      return "no-feedback baseline (negative control)";
    case AlgorithmKind::kQuorum:
      return "biology-inspired quorum-threshold baseline";
  }
  return {};
}

std::vector<std::string> builtin_param_schema(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kOptimal:
    case AlgorithmKind::kOptimalSettle:
      return {};
    case AlgorithmKind::kSimple:
    case AlgorithmKind::kRateBoosted:
    case AlgorithmKind::kQualityAware:
      return {"n_estimate_error"};
    case AlgorithmKind::kUniformRecruit:
      return {"uniform_recruit_prob"};
    case AlgorithmKind::kQuorum:
      return {"quorum_fraction", "quorum_tandem_rate"};
  }
  return {};
}

}  // namespace

AlgorithmSpec builtin_algorithm_spec(AlgorithmKind kind) {
  AlgorithmSpec spec;
  spec.name = std::string(algorithm_name(kind));
  spec.summary = builtin_summary(kind);
  spec.mode = default_mode(kind);
  spec.params = builtin_param_schema(kind);
  spec.colony = [kind](const SimulationConfig& config, env::FaultPlan plan,
                       std::uint64_t colony_seed,
                       const AlgorithmParams& params) {
    return make_colony(config.num_ants, kind, std::move(plan), colony_seed,
                       params);
  };
  // Every built-in pack rides the AntPack base, whose fault lanes, sleep
  // overlay, exact/noisy observe views and agreement censuses supply the
  // whole standard matrix; tests/test_registry.cpp holds the declaration
  // to what tests/test_ant_pack.cpp exercises.
  spec.capabilities = Capabilities::standard_pack();
  spec.pack = [kind](const SimulationConfig& config, std::uint64_t colony_seed,
                     const AlgorithmParams& params,
                     const env::FaultPlan* faults) {
    return make_ant_pack(kind, config.num_ants,
                         static_cast<std::uint32_t>(config.qualities.size()),
                         colony_seed, params, faults);
  };
  return spec;
}

// --- registry ---------------------------------------------------------------

AlgorithmRegistry::AlgorithmRegistry() {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    add(builtin_algorithm_spec(kind));
  }
  // PAPERS.md variants registered through the public spec API — the same
  // door third-party algorithms use (nothing below this layer knows them).
  register_idle_search_algorithm(*this);
  register_lattice_walker_algorithm(*this);
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry;
  return registry;
}

void AlgorithmRegistry::add(AlgorithmSpec spec) {
  if (spec.name.empty()) {
    throw std::invalid_argument("algorithm spec has an empty name");
  }
  if (!spec.colony) {
    throw std::invalid_argument("algorithm spec '" + spec.name +
                                "' carries no colony factory");
  }
  for (const std::string& key : spec.params) {
    if (find_param(key) == nullptr) {
      throw std::invalid_argument("algorithm spec '" + spec.name +
                                  "' declares unknown parameter '" + key +
                                  "'");
    }
  }
  auto shared = std::make_shared<const AlgorithmSpec>(std::move(spec));
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& existing : specs_) {
    if (existing->name == shared->name) {
      existing = std::move(shared);  // replacement: last registration wins
      return;
    }
  }
  specs_.push_back(std::move(shared));
}

bool AlgorithmRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

std::shared_ptr<const AlgorithmSpec> AlgorithmRegistry::find(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& spec : specs_) {
    if (spec->name == name) return spec;
  }
  return nullptr;
}

std::unique_ptr<Simulation> AlgorithmRegistry::make(
    std::string_view name, const SimulationConfig& config,
    const AlgorithmParams& params) const {
  const std::shared_ptr<const AlgorithmSpec> spec = find(name);
  if (spec == nullptr) {
    throw std::out_of_range("unknown algorithm '" + std::string(name) +
                            "' (registered: " + known_algorithms() + ")");
  }
  // Build outside the lock: factories run whole colony constructions.
  return std::make_unique<Simulation>(config, *spec, params);
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(specs_.size());
    for (const auto& spec : specs_) out.push_back(spec->name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string known_algorithms() {
  std::string known;
  for (const std::string& n : AlgorithmRegistry::instance().names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return known;
}

std::string known_params() {
  std::string known;
  for (const ParamInfo& info : kParamTable) {
    if (!known.empty()) known += ", ";
    known += std::string(info.key);
  }
  return known;
}

std::unique_ptr<Simulation> make_simulation(std::string_view algorithm,
                                            const SimulationConfig& config,
                                            const AlgorithmParams& params) {
  return AlgorithmRegistry::instance().make(algorithm, config, params);
}

}  // namespace hh::core
