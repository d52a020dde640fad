// The honeycomb-lattice world (env::Backend implementation #2).
//
// A periodic W x H brick-wall honeycomb: every site has degree 3 — an
// east and a west neighbor, plus one vertical neighbor whose direction
// alternates with the parity of (x + y) (even sites link up, odd sites
// link down). With W and H even the vertical edge is an involution, so
// the graph is a proper 3-regular cover of the torus.
//
// Ants are persistent random walkers with per-ant motility lanes: a
// "fast" behavioral syndrome walks with high directional persistence, a
// "slow" one with low (individual motility variation in ant colonies;
// see PAPERS.md). A search() step either repeats roughly the previous
// heading (with probability persist, uniform over the two non-backward
// edges) or picks uniformly among all three edges. go(i) is a directed
// relocation; there is no recruitment process — step_masked_recruit_quiet
// inherits the Backend base's ContractViolation default.
//
// The backend records each ant's FIRST-PASSAGE time to the target site
// (the round it first stood there; analysis/metrics.hpp summarizes the
// distribution). The decision-kernel layer treats the target as
// pseudo-nest 1: a walker that has reached it commits and idles.
//
// All walk randomness is environment randomness (walkers draw no RNG of
// their own), so scalar/packed engine equivalence reduces to the masked
// entry point being RNG-equivalent to step() — which it is by
// construction: both are adapters over one shared row core.
#ifndef HH_ENV_LATTICE_HPP
#define HH_ENV_LATTICE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "env/action.hpp"
#include "env/backend.hpp"
#include "env/nest.hpp"
#include "util/rng.hpp"

namespace hh::env {

/// Sentinel for LatticeConfig::target_site: place the target on the site
/// antipodal to the nest (half the torus away in both coordinates).
inline constexpr std::uint32_t kLatticeAutoTarget = 0xffffffffu;

/// Static description of a lattice world (geometry + motility lanes).
/// Part of scenario identity: every field serializes into the identity
/// JSON of lattice scenarios (analysis/spec.cpp).
struct LatticeConfig {
  std::uint32_t width = 16;   ///< columns; even, >= 2
  std::uint32_t height = 16;  ///< rows; even, >= 2
  /// Site every ant starts on (index y * width + x).
  std::uint32_t nest_site = 0;
  /// First-passage target site; kLatticeAutoTarget = antipodal to nest.
  std::uint32_t target_site = kLatticeAutoTarget;
  /// Directional persistence of the fast motility syndrome.
  double persist_fast = 0.9;
  /// Directional persistence of the slow motility syndrome.
  double persist_slow = 0.3;
  /// Fraction of the colony in the fast lane. Assignment is deterministic
  /// by ant index (ants [0, round(fast_fraction * n)) are fast) so the
  /// syndrome split costs no RNG draws.
  double fast_fraction = 0.5;
};

/// The resolved target site of `cfg` (the antipode of nest_site when
/// target_site is kLatticeAutoTarget).
[[nodiscard]] std::uint32_t lattice_target_site(const LatticeConfig& cfg);

/// The honeycomb world. One instance = one execution (until reset).
/// `final` for the same reason as HomeNestBackend: the engine hot paths
/// hold the concrete type, so calls devirtualize.
class LatticeBackend final : public Backend {
 public:
  /// Edge labels of the 3-regular brick-wall honeycomb.
  enum Dir : std::uint8_t { kEast = 0, kWest = 1, kVertical = 2 };

  /// `lanes` = kMasked builds no Outcome rows (the packed engine's
  /// world): step() then fails HH_EXPECTS.
  LatticeBackend(std::uint32_t num_ants, const LatticeConfig& cfg,
                 std::uint64_t seed, WorldLanes lanes = WorldLanes::kFull);
  ~LatticeBackend() override = default;

  // --- Backend contract ---------------------------------------------------
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kLattice;
  }
  [[nodiscard]] std::uint32_t num_ants() const override { return num_ants_; }
  [[nodiscard]] std::uint32_t num_locations() const override {
    return num_sites_;
  }
  [[nodiscard]] std::uint32_t round() const override { return round_; }
  [[nodiscard]] NestId location(AntId a) const override { return loc_[a]; }
  [[nodiscard]] std::span<const std::uint32_t> counts() const override {
    return counts_;
  }
  [[nodiscard]] const RoundStats& last_round_stats() const override {
    return stats_;
  }

  const std::vector<Outcome>& step(std::span<const Action> actions) override;
  void step_masked_go_quiet(std::span<const MaskedOp> op,
                            std::span<const NestId> targets) override;
  void reset(std::uint64_t seed) override;

  // --- lattice-specific inspection ----------------------------------------
  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t height() const { return height_; }
  [[nodiscard]] std::uint32_t nest_site() const { return nest_; }
  [[nodiscard]] std::uint32_t target_site() const { return target_; }
  /// The site one step from `site` along edge `dir`.
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t site,
                                       std::uint8_t dir) const;
  /// Whether ant a has stood on the target at least once.
  [[nodiscard]] bool reached(AntId a) const { return first_passage_[a] != 0; }
  /// Number of ants that have reached the target.
  [[nodiscard]] std::uint32_t reached_count() const { return reached_count_; }
  /// first_passage()[a] = round ant a first stood on the target (1-based;
  /// 0 = not yet), indexed by ant.
  [[nodiscard]] std::span<const std::uint32_t> first_passage() const {
    return first_passage_;
  }
  /// Directional persistence of ant a's motility lane.
  [[nodiscard]] double persistence(AntId a) const { return persist_[a]; }

 private:
  static constexpr std::uint8_t kNoDir = 3;  ///< no previous heading

  /// One persistent-walk move for ant a (draws off rng_ in ant order).
  void walk(AntId a);

  /// The row-level core every entry point goes through: `action_at(a)`
  /// yields ant a's Action. step() and the masked form are thin adapters
  /// over this one template, which is what makes them RNG-equivalent by
  /// construction (same draws, same order). The loud instantiation —
  /// step()'s — also fills the per-ant Outcome rows.
  template <bool kLoud, typename ActionAt>
  void run_round(const ActionAt& action_at);

  LatticeConfig cfg_;
  WorldLanes lanes_;
  std::uint32_t num_ants_;
  std::uint32_t width_;
  std::uint32_t height_;
  std::uint32_t num_sites_;
  std::uint32_t nest_;
  std::uint32_t target_;
  util::Rng rng_;
  std::uint32_t round_ = 0;
  std::uint32_t reached_count_ = 0;  ///< ants with first_passage_ != 0
  RoundStats stats_;
  // The lanes every round reads: a masked round touches these and no
  // others.
  std::vector<NestId> loc_;                  ///< site per ant
  std::vector<std::uint8_t> back_dir_;       ///< edge just walked, reversed;
                                             ///< kNoDir before a first walk
                                             ///< and after a go()
  std::vector<double> persist_;              ///< motility lane per ant; a
                                             ///< function of the config, so
                                             ///< reset() keeps it
  std::vector<std::uint32_t> first_passage_; ///< 0 = target not yet reached
  std::vector<std::uint32_t> counts_;        ///< population per site
  /// step()'s returns, indexed by ant; empty in a kMasked world.
  std::vector<Outcome> outcomes_;
};

}  // namespace hh::env

#endif  // HH_ENV_LATTICE_HPP
