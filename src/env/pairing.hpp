// The centralized random recruitment-matching process (paper Algorithm 1).
//
// All ants at the home nest in a round call recruit(b, i); the environment
// pairs active recruiters with uniformly chosen ants. The paper notes the
// process "is not a distributed algorithm executed by the ants, but just a
// modeling tool", and that the results are believed to hold under "other
// natural models for randomly pairing ants" — hence the strategy interface
// with the paper's process as the default and an alternative for ablation.
#ifndef HH_ENV_PAIRING_HPP
#define HH_ENV_PAIRING_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "env/nest.hpp"
#include "util/rng.hpp"

namespace hh::env {

/// One ant's recruit(b, i) call, as the environment records it. The
/// pairing process sees only the active flags (PairingModel::pair_active).
struct RecruitRequest {
  AntId ant = 0;              ///< caller
  bool active = false;        ///< b: true iff the ant recruits actively
  NestId target = kHomeNest;  ///< i: the nest the ant advertises
};

/// Index into the request span, or kNotRecruited.
inline constexpr std::int32_t kNotRecruited = -1;

/// Per-call context for the pairing process. The sequential models draw
/// from the shared `rng`; the counter-lottery model instead keys one
/// SplitMix64 stream per request slot on (seed, round, slot) and leaves
/// `rng` untouched — which is what makes its draws order-free and the
/// propose/lottery phases flat O(m) loops. `round` is 1-based; round == 0
/// marks an unkeyed ad-hoc call (tests, benchmarks), for which
/// the counter model derives an ephemeral key by drawing ONE word from
/// `rng` — so ad-hoc calls stay deterministic given the rng state.
struct PairingCtx {
  util::Rng& rng;            ///< the environment's sequential stream
  std::uint64_t seed = 0;    ///< pairing seed, stable across the execution
  std::uint32_t round = 0;   ///< 1-based round being executed; 0 = unkeyed
};

/// Caller-owned buffers for the pairing process: the matching itself plus
/// every model's workspace. Held by the Environment (one per execution) and
/// reused across rounds, so pairing performs zero heap allocations after
/// the model's PairingModel::reserve() — the hot-path contract
/// Environment::step() is built on.
/// All vectors are indexed by position in the request span (NOT by AntId).
struct PairingScratch {
  /// recruited_by[x] = index of the request whose ant recruited x
  /// (possibly x itself — self-recruitment is allowed, see DESIGN.md), or
  /// kNotRecruited.
  std::vector<std::int32_t> recruited_by;
  /// recruit_succeeded[x] != 0 iff request x's ant appears as the
  /// recruiter in a pair of M. uint8_t rather than bool: flat byte access,
  /// no bit-packing on the hot path.
  std::vector<std::uint8_t> recruit_succeeded;

  // Model workspace (contents meaningless between calls).
  std::vector<std::uint32_t> perm;            ///< permutation buffer
  std::vector<std::uint8_t> active;           ///< the environment's packed
                                              ///< active flags (its
                                              ///< pair_active() input)
  std::vector<std::int32_t> proposal;         ///< uniform-proposal, and
                                              ///< the counter model's
                                              ///< compaction arena
  std::vector<std::int32_t> winner;           ///< uniform-proposal + counter
  std::vector<std::uint32_t> proposer_count;  ///< uniform-proposal only
  /// Counter-lottery tickets, doubling as the uniform-proposal batched
  /// proposal-draw buffer (both are per-slot u64 lanes, never live at
  /// the same time).
  std::vector<std::uint64_t> ticket;

  /// Pre-size every buffer for up to `max_requests` requests: the lanes
  /// of every model, for ad-hoc callers that pair under several.
  void reserve(std::size_t max_requests);
  /// Pre-size the lanes every model touches: the matching and the packed
  /// active flags. PairingModel::reserve adds the model's workspace.
  void reserve_matching(std::size_t max_requests);

  /// Number of pairs in M.
  [[nodiscard]] std::size_t pair_count() const {
    std::size_t pairs = 0;
    for (auto r : recruited_by) pairs += (r != kNotRecruited) ? 1u : 0u;
    return pairs;
  }
};

/// Strategy interface for the home-nest pairing process.
///
/// The matching depends on nothing but each request's active flag, so the
/// whole interface is SoA: pair_active() over a packed byte span, one flag
/// per recruit() call in request order. The environment packs the flags
/// itself (into PairingScratch::active) as it collects the calls.
class PairingModel {
 public:
  virtual ~PairingModel() = default;

  /// Compute the matching M for m recruit() calls given their active
  /// flags (active.size() == m), writing into `scratch` (resized to m;
  /// allocation-free when the scratch has capacity). Implementations must
  /// produce a valid matching: each ant appears at most once as recruited
  /// and at most once as recruiter, and only active ants recruit.
  virtual void pair_active(std::span<const std::uint8_t> active,
                           const PairingCtx& ctx,
                           PairingScratch& scratch) const = 0;

  /// Pre-size the scratch lanes this model touches for up to
  /// `max_requests` requests, so pair_active() allocates nothing after
  /// it. The default reserves every lane, which serves any model; the
  /// built-in models that leave lanes untouched reserve only their own.
  virtual void reserve(PairingScratch& scratch,
                       std::size_t max_requests) const {
    scratch.reserve(max_requests);
  }

  /// Rng-only form: an unkeyed ad-hoc call (PairingCtx::round == 0).
  void pair_active(std::span<const std::uint8_t> active, util::Rng& rng,
                   PairingScratch& scratch) const {
    pair_active(active, PairingCtx{rng}, scratch);
  }

  /// Short stable identifier for reports.
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// The paper's Algorithm 1, implemented literally:
///   * P: a uniformly random permutation of all ants in R;
///   * in P-order, each active, not-yet-recruited ant draws a' uniformly
///     from all of R and the pair is added iff a' is in no pair yet;
///   * a' may equal the recruiter (self-recruitment; a no-op for the ant).
class PermutationPairing final : public PairingModel {
 public:
  using PairingModel::pair_active;
  void pair_active(std::span<const std::uint8_t> active, const PairingCtx& ctx,
                   PairingScratch& scratch) const override;
  void reserve(PairingScratch& scratch,
               std::size_t max_requests) const override;
  [[nodiscard]] std::string_view name() const override { return "permutation"; }
};

/// An alternative "natural model" used for the pairing ablation (E15):
/// every active ant first commits to a uniformly random proposal target;
/// each target chooses one proposer uniformly at random (a lottery rather
/// than permutation precedence); tentative matches are then accepted in a
/// random order, skipping any match whose endpoint is already used.
class UniformProposalPairing final : public PairingModel {
 public:
  using PairingModel::pair_active;
  void pair_active(std::span<const std::uint8_t> active, const PairingCtx& ctx,
                   PairingScratch& scratch) const override;
  [[nodiscard]] std::string_view name() const override { return "uniform-proposal"; }
};

/// The data-parallel "natural model": every per-ant draw comes from a
/// counter-based stream — SplitMix64 keyed on (pairing seed, round, slot)
/// via util::mix_seed — instead of the shared sequential Rng, so the
/// propose and per-target-lottery phases are branch-light O(m) loops over
/// flat lanes with no cross-slot data dependence (trivially chunkable).
/// Process: each active slot draws a uniform target over ALL of R (self
/// included, like Algorithm 1) plus a 32-bit lottery ticket; each target
/// keeps the proposer with the highest ticket (ties, probability ~2^-32
/// per colliding pair, go to the lowest slot — deterministic under any
/// evaluation order); tentative matches are then accepted in target-index
/// order, skipping any match with a used endpoint. Keyed calls draw
/// NOTHING from the shared stream. See DESIGN.md §2 for the argument that
/// the lottery marginals match the sequential reservoir lottery.
class CounterLotteryPairing final : public PairingModel {
 public:
  using PairingModel::pair_active;
  void pair_active(std::span<const std::uint8_t> active, const PairingCtx& ctx,
                   PairingScratch& scratch) const override;
  void reserve(PairingScratch& scratch,
               std::size_t max_requests) const override;
  [[nodiscard]] std::string_view name() const override { return "counter-lottery"; }
};

/// Selector for configs that must stay copyable (strategy objects are not).
enum class PairingKind : std::uint8_t { kPermutation, kUniformProposal, kCounter };

/// Stable pairing-model name ("permutation" / "uniform-proposal" /
/// "counter-lottery"), matching the model's name() — THE vocabulary
/// reports and spec files share (analysis/spec.cpp parses it back).
[[nodiscard]] std::string_view pairing_name(PairingKind kind);

/// The PairingKind whose pairing_name() is `name`, if any.
[[nodiscard]] std::optional<PairingKind> pairing_from_name(
    std::string_view name);

/// Instantiate a pairing model by kind.
[[nodiscard]] std::unique_ptr<PairingModel> make_pairing_model(PairingKind kind);

}  // namespace hh::env

#endif  // HH_ENV_PAIRING_HPP
