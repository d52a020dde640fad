#include "core/registry.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/ant_pack.hpp"
#include "core/idle_search_ant.hpp"
#include "core/optimal_ant.hpp"
#include "core/optimal_pack.hpp"
#include "core/quality_aware_ant.hpp"
#include "core/quorum_ant.hpp"
#include "core/rate_boosted_ant.hpp"
#include "core/simple_ant.hpp"
#include "core/uniform_recruit_ant.hpp"
#include "core/walker_ant.hpp"
#include "util/contracts.hpp"

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

// --- the built-in catalog ---------------------------------------------------

namespace {

/// Everything that defines one built-in algorithm.
struct BuiltinRow {
  AlgorithmKind kind;
  std::string_view name;
  std::string_view summary;
  ConvergenceMode mode;
  std::array<std::string_view, 2> params;  ///< schema keys; "" = unused
  /// One correct ant of an n-ant colony, on its private stream `rng`.
  std::unique_ptr<Ant> (*ant)(std::uint32_t num_ants,
                              const AlgorithmParams& params, util::Rng rng);
  /// The pack module's factory; all share one signature (ant_pack.hpp).
  decltype(&make_simple_family_pack) pack;
};

// The per-object ants. The Algorithm-3 family draws each ant's belief of
// n (Section 6) off the ant's own stream before building it.
template <typename A>
std::unique_ptr<Ant> algorithm3_ant(std::uint32_t num_ants,
                                    const AlgorithmParams& params,
                                    util::Rng rng) {
  const std::uint32_t n =
      believed_colony_size(num_ants, params.n_estimate_error, rng);
  return std::make_unique<A>(n, rng);
}

template <bool kSettle>
std::unique_ptr<Ant> optimal_ant(std::uint32_t num_ants,
                                 const AlgorithmParams& /*params*/,
                                 util::Rng /*rng*/) {
  return std::make_unique<OptimalAnt>(num_ants, kSettle);
}

std::unique_ptr<Ant> uniform_recruit_ant(std::uint32_t num_ants,
                                         const AlgorithmParams& params,
                                         util::Rng rng) {
  return std::make_unique<UniformRecruitAnt>(num_ants, rng,
                                             params.uniform_recruit_prob);
}

std::unique_ptr<Ant> quorum_ant(std::uint32_t num_ants,
                                const AlgorithmParams& params, util::Rng rng) {
  return std::make_unique<QuorumAnt>(
      num_ants, rng, quorum_threshold(num_ants, params.quorum_fraction),
      params.quorum_tandem_rate);
}

/// The built-ins, one row per AlgorithmKind in declaration order.
constexpr std::array<BuiltinRow, 7> kBuiltins{{
    {AlgorithmKind::kOptimal, "optimal",
     "Algorithm 2: O(log n) tournament of nest pairs (Section 4)",
     ConvergenceMode::kCommitmentFinalized, {}, &optimal_ant<false>,
     &make_optimal_pack},
    {AlgorithmKind::kOptimalSettle, "optimal+settle",
     "Algorithm 2 + the Section 4.2 settle/termination extension",
     ConvergenceMode::kPhysical, {}, &optimal_ant<true>, &make_optimal_pack},
    {AlgorithmKind::kSimple, "simple",
     "Algorithm 3: population-proportional feedback, O(k log n)",
     ConvergenceMode::kCommitment, {"n_estimate_error"},
     &algorithm3_ant<SimpleAnt>, &make_simple_family_pack},
    {AlgorithmKind::kRateBoosted, "rate-boosted",
     "Section 6 boosted-rate variant (removes the Theta(k) factor)",
     ConvergenceMode::kCommitment, {"n_estimate_error"},
     &algorithm3_ant<RateBoostedAnt>, &make_simple_family_pack},
    {AlgorithmKind::kQualityAware, "quality-aware",
     "Section 6 non-binary-quality variant", ConvergenceMode::kCommitment,
     {"n_estimate_error"}, &algorithm3_ant<QualityAwareAnt>,
     &make_simple_family_pack},
    {AlgorithmKind::kUniformRecruit, "uniform-recruit",
     "no-feedback baseline (negative control)", ConvergenceMode::kCommitment,
     {"uniform_recruit_prob"}, &uniform_recruit_ant, &make_simple_family_pack},
    {AlgorithmKind::kQuorum, "quorum",
     "biology-inspired quorum-threshold baseline",
     ConvergenceMode::kCommitment, {"quorum_fraction", "quorum_tandem_rate"},
     &quorum_ant, &make_quorum_pack},
}};

constexpr bool rows_follow_kinds() {
  for (std::size_t i = 0; i < kBuiltins.size(); ++i) {
    if (static_cast<std::size_t>(kBuiltins[i].kind) != i) return false;
  }
  return true;
}
static_assert(rows_follow_kinds(), "kBuiltins is indexed by AlgorithmKind");

std::size_t row_index(AlgorithmKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  HH_EXPECTS(i < kBuiltins.size());
  return i;
}

const BuiltinRow& row(AlgorithmKind kind) { return kBuiltins[row_index(kind)]; }

AlgorithmSpec spec_from_row(const BuiltinRow& r) {
  AlgorithmSpec spec;
  spec.name = std::string(r.name);
  spec.summary = std::string(r.summary);
  spec.mode = r.mode;
  for (const std::string_view key : r.params) {
    if (!key.empty()) spec.params.emplace_back(key);
  }
  spec.colony = [kind = r.kind](const SimulationConfig& config,
                                env::FaultPlan plan, std::uint64_t colony_seed,
                                const AlgorithmParams& params) {
    return make_colony(config.num_ants, kind, std::move(plan), colony_seed,
                       params);
  };
  // Every built-in pack rides the AntPack base, whose fault lanes, sleep
  // overlay and exact/noisy observe views run every Section 6 extension,
  // and serves its row's mode; tests/test_registry.cpp holds kAuto to the
  // packed engine across them.
  spec.pack = [kind = r.kind, pack = r.pack](
                  const SimulationConfig& config, std::uint64_t colony_seed,
                  const AlgorithmParams& params,
                  const env::FaultPlan* faults) {
    return pack(kind, config.num_ants,
                static_cast<std::uint32_t>(config.qualities.size()),
                colony_seed, params, faults);
  };
  return spec;
}

}  // namespace

std::string_view algorithm_name(AlgorithmKind kind) { return row(kind).name; }

ConvergenceMode default_mode(AlgorithmKind kind) { return row(kind).mode; }

const std::vector<AlgorithmKind>& all_algorithm_kinds() {
  static const std::vector<AlgorithmKind> kinds = [] {
    std::vector<AlgorithmKind> out;
    for (const BuiltinRow& r : kBuiltins) out.push_back(r.kind);
    return out;
  }();
  return kinds;
}

std::optional<AlgorithmKind> algorithm_from_name(std::string_view name) {
  for (const BuiltinRow& r : kBuiltins) {
    if (r.name == name) return r.kind;
  }
  return std::nullopt;
}

const AlgorithmSpec& builtin_algorithm_spec(AlgorithmKind kind) {
  static const std::vector<AlgorithmSpec> specs = [] {
    std::vector<AlgorithmSpec> out;
    for (const BuiltinRow& r : kBuiltins) out.push_back(spec_from_row(r));
    return out;
  }();
  return specs[row_index(kind)];
}

Colony make_colony(std::uint32_t num_ants, AlgorithmKind kind,
                   std::uint64_t seed, const AlgorithmParams& params) {
  return make_colony(num_ants, kind, env::FaultPlan::none(num_ants), seed,
                     params);
}

Colony make_colony(std::uint32_t num_ants, AlgorithmKind kind,
                   env::FaultPlan plan, std::uint64_t seed,
                   const AlgorithmParams& params) {
  const BuiltinRow& r = row(kind);
  return make_colony(
      num_ants,
      [&r, num_ants, &params](env::AntId, util::Rng rng) {
        return r.ant(num_ants, params, rng);
      },
      std::move(plan), seed, std::string(r.name));
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
