#include "env/lattice.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace hh::env {

namespace {

/// width*height validated in 64 bits — a wrapped uint32 product would
/// silently shrink the world and let the nest/target range checks pass
/// against the wrong site count.
std::uint32_t checked_num_sites(const LatticeConfig& cfg) {
  const auto sites =
      static_cast<std::uint64_t>(cfg.width) * static_cast<std::uint64_t>(cfg.height);
  HH_EXPECTS(sites <= std::numeric_limits<std::uint32_t>::max());
  return static_cast<std::uint32_t>(sites);
}

}  // namespace

std::uint32_t lattice_target_site(const LatticeConfig& cfg) {
  if (cfg.target_site != kLatticeAutoTarget) return cfg.target_site;
  // Guard before the modulo: this runs in the backend's member
  // initializer list, ahead of the constructor-body validation.
  HH_EXPECTS(cfg.width >= 1 && cfg.height >= 1);
  const std::uint32_t x = cfg.nest_site % cfg.width;
  const std::uint32_t y = cfg.nest_site / cfg.width;
  const std::uint32_t tx = (x + cfg.width / 2) % cfg.width;
  const std::uint32_t ty = (y + cfg.height / 2) % cfg.height;
  return ty * cfg.width + tx;
}

LatticeBackend::LatticeBackend(std::uint32_t num_ants,
                               const LatticeConfig& cfg, std::uint64_t seed,
                               WorldLanes lanes)
    : cfg_(cfg),
      lanes_(lanes),
      num_ants_(num_ants),
      width_(cfg.width),
      height_(cfg.height),
      num_sites_(checked_num_sites(cfg)),
      nest_(cfg.nest_site),
      target_(lattice_target_site(cfg)),
      rng_(seed) {
  HH_EXPECTS(num_ants >= 1);
  // Even extents keep the vertical edge an involution across the wrap
  // (moving V from (x, y) and V again returns to (x, y)); odd ones would
  // break the 3-regular honeycomb structure at the seam.
  HH_EXPECTS(width_ >= 2 && width_ % 2 == 0);
  HH_EXPECTS(height_ >= 2 && height_ % 2 == 0);
  HH_EXPECTS(nest_ < num_sites_);
  HH_EXPECTS(target_ < num_sites_);
  HH_EXPECTS(nest_ != target_);  // a zero-length walk is a config error
  HH_EXPECTS(cfg.persist_fast >= 0.0 && cfg.persist_fast <= 1.0);
  HH_EXPECTS(cfg.persist_slow >= 0.0 && cfg.persist_slow <= 1.0);
  HH_EXPECTS(cfg.fast_fraction >= 0.0 && cfg.fast_fraction <= 1.0);
  loc_.assign(num_ants_, nest_);
  back_dir_.assign(num_ants_, kNoDir);
  first_passage_.assign(num_ants_, 0);
  counts_.assign(num_sites_, 0);
  counts_[nest_] = num_ants_;
  if (lanes_ == WorldLanes::kFull) outcomes_.resize(num_ants_);
  // Motility lanes by index — no draws, so the syndrome split never
  // shifts the walk RNG stream.
  const auto fast = std::min<std::uint32_t>(
      num_ants_, static_cast<std::uint32_t>(
                     std::lround(cfg.fast_fraction *
                                 static_cast<double>(num_ants_))));
  persist_.resize(num_ants_);
  for (AntId a = 0; a < num_ants_; ++a) {
    persist_[a] = a < fast ? cfg.persist_fast : cfg.persist_slow;
  }
}

void LatticeBackend::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  round_ = 0;
  reached_count_ = 0;
  stats_ = RoundStats{};
  std::fill(loc_.begin(), loc_.end(), nest_);
  std::fill(back_dir_.begin(), back_dir_.end(), kNoDir);
  std::fill(first_passage_.begin(), first_passage_.end(), 0u);
  std::fill(counts_.begin(), counts_.end(), 0u);
  counts_[nest_] = num_ants_;
  // persist_ is a pure function of the config — identical after reset.
}

std::uint32_t LatticeBackend::neighbor(std::uint32_t site,
                                       std::uint8_t dir) const {
  const std::uint32_t x = site % width_;
  const std::uint32_t y = site / width_;
  switch (dir) {
    case kEast:
      return y * width_ + (x + 1 == width_ ? 0 : x + 1);
    case kWest:
      return y * width_ + (x == 0 ? width_ - 1 : x - 1);
    default: {
      HH_ASSERT(dir == kVertical);
      const bool up = ((x + y) & 1u) == 0;
      const std::uint32_t ny = up ? (y + 1 == height_ ? 0 : y + 1)
                                  : (y == 0 ? height_ - 1 : y - 1);
      return ny * width_ + x;
    }
  }
}

void LatticeBackend::walk(AntId a) {
  const std::uint8_t back = back_dir_[a];
  std::uint8_t dir;
  if (back != kNoDir && rng_.bernoulli(persist_[a])) {
    // Persist: uniform over the two non-backward edges.
    const auto d = static_cast<std::uint8_t>(rng_.uniform_u64(2));
    dir = d >= back ? static_cast<std::uint8_t>(d + 1) : d;
  } else {
    // First step, or the persistence coin came up tails: uniform over all
    // three edges (backtracking allowed).
    dir = static_cast<std::uint8_t>(rng_.uniform_u64(3));
  }
  loc_[a] = neighbor(loc_[a], dir);
  // The edge just walked, as seen from the new site: E and W reverse each
  // other; the vertical edge is its own reverse.
  back_dir_[a] = dir == kEast ? kWest : (dir == kWest ? kEast : kVertical);
}

template <bool kLoud, typename ActionAt>
void LatticeBackend::run_round(const ActionAt& action_at) {
  stats_ = RoundStats{};
  const std::uint32_t r = round_ + 1;
  for (AntId a = 0; a < num_ants_; ++a) {
    const Action action = action_at(a);
    if constexpr (kLoud) outcomes_[a].kind = action.kind;
    switch (action.kind) {
      case ActionKind::kSearch:
        ++stats_.searches;
        walk(a);
        break;
      case ActionKind::kGo:
        // Directed relocation (a kernel that knows where it is going);
        // consumes no randomness and clears the walk heading.
        ++stats_.gos;
        HH_EXPECTS(action.target < num_sites_);
        loc_[a] = action.target;
        back_dir_[a] = kNoDir;
        break;
      case ActionKind::kIdle:
        ++stats_.idles;
        break;
      case ActionKind::kRecruit:
        throw ContractViolation(
            "recruit() on the lattice backend: this world has no "
            "recruitment process");
    }
    if (loc_[a] == target_ && first_passage_[a] == 0) {
      first_passage_[a] = r;
      ++reached_count_;
    }
  }
  std::fill(counts_.begin(), counts_.end(), 0u);
  for (AntId a = 0; a < num_ants_; ++a) ++counts_[loc_[a]];
  round_ = r;
  if constexpr (kLoud) {
    for (AntId a = 0; a < num_ants_; ++a) {
      Outcome& out = outcomes_[a];
      out.nest = loc_[a];
      out.quality = loc_[a] == target_ ? 1.0 : 0.0;
      out.count = counts_[loc_[a]];
      out.recruited = false;
      out.recruit_succeeded = false;
    }
  }
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
const std::vector<Outcome>& LatticeBackend::step(
    std::span<const Action> actions) {
  HH_EXPECTS(lanes_ == WorldLanes::kFull);
  HH_EXPECTS(actions.size() == num_ants_);
  run_round<true>([&](AntId a) { return actions[a]; });
  return outcomes_;
}

namespace {

/// Adapter translating masked op/target lanes into per-row Actions for
/// the shared round core (recruit rows surface as Action recruits, which
/// the core rejects with the same ContractViolation the generic path
/// throws).
struct MaskedLatticeRows {
  std::span<const MaskedOp> op;
  std::span<const NestId> targets;
  Action operator()(AntId a) const {
    switch (op[a]) {
      case MaskedOp::kIdle:
        return Action::idle();
      case MaskedOp::kGo:
        return Action::go(targets[a]);
      case MaskedOp::kSearch:
        return Action::search();
      case MaskedOp::kRecruit:
        break;
    }
    return Action::recruit(false, kHomeNest);
  }
};

}  // namespace

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void LatticeBackend::step_masked_go_quiet(std::span<const MaskedOp> op,
                                          std::span<const NestId> targets) {
  HH_EXPECTS(op.size() == num_ants_ && targets.size() == num_ants_);
  run_round<false>(MaskedLatticeRows{op, targets});
}

}  // namespace hh::env
