// Registry v2 — the algorithm catalog.
//
// An algorithm plugs into every sweep, bench, spec file, and example
// through ONE typed artifact: an AlgorithmSpec bundling
//   * the scalar colony factory (required — the reference path),
//   * an optional packed-engine factory — a spec runs packed iff it
//     ships one (unless kScalar is requested); without one, kAuto falls
//     back to the colony factory and kPacked throws,
//   * the world its decision kernels are written for (env_backend),
//   * the algorithm's convergence mode, and
//   * its parameter schema: which AlgorithmParams fields it consults,
//     keyed into the data-driven algorithm_param_table() that the JSON
//     spec layer (analysis/spec.hpp) serializes and validates against.
//
// Scenarios reference algorithms by name, so a new variant — packed or
// not — needs exactly one add() call and zero edits to the engine
// (core/idle_search_ant.cpp registers a PAPERS.md variant this way).
#ifndef HH_CORE_REGISTRY_HPP
#define HH_CORE_REGISTRY_HPP

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/colony.hpp"
#include "core/simulation.hpp"

namespace hh::core {

class AntPack;

/// One tunable of AlgorithmParams, described as data so serialization,
/// validation, and documentation never enumerate the struct by hand.
struct ParamInfo {
  std::string_view key;                 ///< stable spec-file key
  double AlgorithmParams::* field;      ///< the struct member it names
  double min_value;                     ///< inclusive valid range
  double max_value;
  std::string_view doc;                 ///< one-line description
};

/// Every AlgorithmParams field, in declaration order. THE schema the JSON
/// layer serializes params through; adding a field to AlgorithmParams
/// means adding one row here and every spec, fingerprint, and validation
/// path picks it up.
[[nodiscard]] std::span<const ParamInfo> algorithm_param_table();

/// The table row for `key`, or nullptr.
[[nodiscard]] const ParamInfo* find_param(std::string_view key);

/// Builds the per-object colony for one trial. `colony_seed` is the
/// derived colony seed (per-ant streams come from it exactly as
/// make_colony derives them); `plan` is the sampled fault assignment.
using ColonyFactory = std::function<Colony(
    const SimulationConfig&, env::FaultPlan plan, std::uint64_t colony_seed,
    const AlgorithmParams&)>;

/// Builds the packed colony for one trial. `faults`, when non-null, is
/// the sampled plan to install as pack-level fault lanes. Must reproduce
/// the colony factory's ants BIT-IDENTICALLY (the §1 equivalence
/// contract) for every configuration its world admits, and must serve
/// the spec's convergence mode in AntPack::agreement_census (a home-nest
/// pack that cannot fails there when the Simulation is constructed).
using PackFactory = std::function<std::unique_ptr<AntPack>(
    const SimulationConfig&, std::uint64_t colony_seed,
    const AlgorithmParams&, const env::FaultPlan* faults)>;

/// Everything the engine needs to run an algorithm by name.
struct AlgorithmSpec {
  std::string name;     ///< stable registry key ("simple", "idle-search")
  std::string summary;  ///< one-liner for listings (--algorithms)

  ColonyFactory colony;           ///< required
  PackFactory pack;               ///< optional packed fast path
  /// The world the algorithm's decision kernels are written for. A
  /// config naming another world is refused on both engines.
  env::BackendKind env_backend = env::BackendKind::kHomeNest;
  /// The convergence notion the algorithm is verified under.
  ConvergenceMode mode = ConvergenceMode::kCommitment;
  /// Parameter schema: algorithm_param_table() keys this algorithm
  /// consults — documentation/listing metadata (bench_spec --algorithms)
  /// and the registry test's contract. Spec parsing validates params
  /// against the TABLE, not this list: a cross-algorithm sweep may set a
  /// knob only some of its algorithms read (the others ignore it — but
  /// note every table param is part of result-cache identity).
  std::vector<std::string> params;
};

/// Process-wide name -> AlgorithmSpec table. The built-in algorithms
/// (every AlgorithmKind, keyed by algorithm_name(kind)) are registered on
/// first access. Lookups are mutex-guarded so Runner worker threads can
/// build simulations concurrently with each other (registration during a
/// running sweep is also safe, if pointless).
class AlgorithmRegistry {
 public:
  /// The process-wide instance.
  [[nodiscard]] static AlgorithmRegistry& instance();

  /// Register (or replace) an algorithm. spec.name must be non-empty,
  /// spec must carry a colony factory, and spec.params keys must exist in
  /// algorithm_param_table() (std::invalid_argument otherwise).
  void add(AlgorithmSpec spec);

  /// True iff `name` is registered.
  [[nodiscard]] bool contains(std::string_view name) const;

  /// The registered spec for `name`, or nullptr. The returned pointer
  /// stays valid across later registrations (specs are immutable once
  /// registered; replacement installs a new object).
  [[nodiscard]] std::shared_ptr<const AlgorithmSpec> find(
      std::string_view name) const;

  /// Build a simulation for `name`. Throws std::out_of_range for an
  /// unknown name (listing the registered ones); std::invalid_argument
  /// when config.engine = kPacked demands a pack the spec does not ship,
  /// or when the config names another world than the spec's.
  [[nodiscard]] std::unique_ptr<Simulation> make(
      std::string_view name, const SimulationConfig& config,
      const AlgorithmParams& params = {}) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  AlgorithmRegistry();

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<const AlgorithmSpec>> specs_;
};

/// All registered algorithm names, ", "-joined — for error messages
/// (shared by the registry and the spec parser, so unknown-name
/// diagnostics never drift).
[[nodiscard]] std::string known_algorithms();

/// The algorithm_param_table() keys, ", "-joined — for error messages.
[[nodiscard]] std::string known_params();

/// Convenience: AlgorithmRegistry::instance().make(...).
[[nodiscard]] std::unique_ptr<Simulation> make_simulation(
    std::string_view algorithm, const SimulationConfig& config,
    const AlgorithmParams& params = {});

/// The built-in AlgorithmKind whose algorithm_name() is `name`, if any.
[[nodiscard]] std::optional<AlgorithmKind> algorithm_from_name(
    std::string_view name);

/// Every built-in AlgorithmKind, in declaration order.
[[nodiscard]] const std::vector<AlgorithmKind>& all_algorithm_kinds();

/// The AlgorithmSpec registered for built-in `kind`, built once from its
/// catalog row in core/registry.cpp: the home-nest world, a colony
/// factory over make_colony(n, kind, ...), and the pack module's factory
/// (make_simple_family_pack, make_quorum_pack, make_optimal_pack). Copy
/// it to register a variant under another name.
[[nodiscard]] const AlgorithmSpec& builtin_algorithm_spec(AlgorithmKind kind);

}  // namespace hh::core

#endif  // HH_CORE_REGISTRY_HPP
