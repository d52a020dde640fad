// Parametric conformance suite for the env::Backend contract (DESIGN.md
// §9). Every backend must honor, and this file pins for BOTH concrete
// worlds through one shared harness:
//
//   * zero-alloc rounds — no global-new allocation in any step entry
//     point after construction (counting_alloc.hpp replaces this
//     binary's operator new);
//   * reset(seed) == fresh — a reset backend is indistinguishable from
//     a newly constructed one with the same seed;
//   * masked/generic RNG equivalence — step_masked_go_quiet makes
//     identical draws in identical order to step() with the
//     corresponding Action vector, so trajectories coincide exactly.
//
// Each world is also built with WorldLanes::kMasked, the lane set the
// packed engine's worlds hold: its masked rounds must match the full
// world's under the same three terms, and step() must refuse to run.
//
// The home-nest cases run with enforce_model = false and allow_idle =
// true: the contract rounds mix search/idle/go freely, which the strict
// Section 2 preconditions would reject (knowledge gating is home-nest
// semantics, not part of the backend contract). The noisy home-nest case
// puts the masked round's perception pass under the same three terms.
#include "counting_alloc.hpp"
//
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "env/environment.hpp"
#include "env/lattice.hpp"
#include "reference_round.hpp"
#include "util/contracts.hpp"

namespace hh::env {
namespace {

constexpr std::uint32_t kAnts = 48;
constexpr std::uint32_t kRounds = 24;

struct BackendCase {
  std::string name;
  std::function<std::unique_ptr<Backend>(std::uint64_t seed, WorldLanes lanes)>
      build;
  /// The world with every lane (the suite's default).
  [[nodiscard]] std::unique_ptr<Backend> make(std::uint64_t seed) const {
    return build(seed, WorldLanes::kFull);
  }
};

EnvironmentConfig home_nest_config(std::uint64_t seed) {
  EnvironmentConfig cfg;
  cfg.num_ants = kAnts;
  cfg.qualities = {1.0, 0.5, 0.0};
  cfg.seed = seed;
  cfg.enforce_model = false;
  cfg.allow_idle = true;
  return cfg;
}

std::vector<BackendCase> backend_cases() {
  std::vector<BackendCase> cases;
  cases.push_back({"home-nest", [](std::uint64_t seed, WorldLanes lanes) {
                     return std::make_unique<HomeNestBackend>(
                         home_nest_config(seed), nullptr, NoiseConfig{}, lanes);
                   }});
  cases.push_back({"home-nest-noisy", [](std::uint64_t seed, WorldLanes lanes) {
                     return std::make_unique<HomeNestBackend>(
                         home_nest_config(seed), nullptr,
                         NoiseConfig{0.3, 0.1, 0.05}, lanes);
                   }});
  cases.push_back({"lattice", [](std::uint64_t seed, WorldLanes lanes) {
                     LatticeConfig cfg;
                     cfg.width = 8;
                     cfg.height = 6;
                     return std::make_unique<LatticeBackend>(kAnts, cfg, seed,
                                                             lanes);
                   }});
  return cases;
}

/// Deterministic mixed-op schedule, valid on every world: location 1
/// exists everywhere (candidate nest 1 / lattice site 1), so kGo
/// targets it (a home-nest go returns quality(target), which only
/// candidate nests have).
MaskedOp op_for(std::uint32_t round, AntId a) {
  switch ((a + round) % 4) {
    case 0:
    case 1: return MaskedOp::kSearch;
    case 2: return MaskedOp::kIdle;
    default: return MaskedOp::kGo;
  }
}

Action action_for(std::uint32_t round, AntId a) {
  switch (op_for(round, a)) {
    case MaskedOp::kSearch: return Action::search();
    case MaskedOp::kIdle: return Action::idle();
    default: return Action::go(NestId{1});
  }
}

struct Snapshot {
  std::vector<NestId> locations;
  std::vector<std::uint32_t> counts;
  std::uint32_t round = 0;

  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const Backend& b) {
  Snapshot s;
  s.locations.reserve(b.num_ants());
  for (AntId a = 0; a < b.num_ants(); ++a) {
    s.locations.push_back(b.location(a));
  }
  const auto counts = b.counts();
  s.counts.assign(counts.begin(), counts.end());
  s.round = b.round();
  return s;
}

/// Drive `rounds` generic-step rounds and return the per-round snapshots.
std::vector<Snapshot> drive_generic(Backend& b, std::uint32_t rounds) {
  std::vector<Snapshot> out;
  std::vector<Action> actions(b.num_ants());
  for (std::uint32_t r = 1; r <= rounds; ++r) {
    for (AntId a = 0; a < b.num_ants(); ++a) actions[a] = action_for(r, a);
    (void)b.step(actions);
    out.push_back(snapshot(b));
  }
  return out;
}

std::vector<Snapshot> drive_masked(Backend& b, std::uint32_t rounds) {
  std::vector<Snapshot> out;
  std::vector<MaskedOp> op(b.num_ants());
  std::vector<NestId> targets(b.num_ants(), NestId{1});
  for (std::uint32_t r = 1; r <= rounds; ++r) {
    for (AntId a = 0; a < b.num_ants(); ++a) op[a] = op_for(r, a);
    b.step_masked_go_quiet(op, targets);
    out.push_back(snapshot(b));
  }
  return out;
}

TEST(BackendContract, MaskedMatchesGenericExactly) {
  for (const BackendCase& c : backend_cases()) {
    SCOPED_TRACE(c.name);
    const auto generic_backend = c.make(0xC0117AC7);
    const auto masked_backend = c.make(0xC0117AC7);
    EXPECT_EQ(drive_generic(*generic_backend, kRounds),
              drive_masked(*masked_backend, kRounds));
  }
}

// The home-nest world's step() and masked entry points resolve one round,
// so the check above cannot tell them apart from a shared mistake; this
// one holds both home-nest cases to the literal four-phase round of
// reference_round.hpp.
TEST(BackendContract, HomeNestMatchesTheReferenceRound) {
  for (const bool noisy : {false, true}) {
    SCOPED_TRACE(noisy ? "home-nest-noisy" : "home-nest");
    const NoiseConfig noise =
        noisy ? NoiseConfig{0.3, 0.1, 0.05} : NoiseConfig{};
    test::ReferenceWorld reference(home_nest_config(0xC0117AC7), nullptr,
                                   noise);
    std::vector<Snapshot> want;
    std::vector<Action> actions(kAnts);
    for (std::uint32_t r = 1; r <= kRounds; ++r) {
      for (AntId a = 0; a < kAnts; ++a) actions[a] = action_for(r, a);
      (void)reference.step(actions);
      Snapshot s;
      for (AntId a = 0; a < kAnts; ++a) {
        s.locations.push_back(reference.location(a));
      }
      for (NestId i = 0; i <= reference.num_nests(); ++i) {
        s.counts.push_back(reference.count(i));
      }
      s.round = reference.round();
      want.push_back(std::move(s));
    }
    HomeNestBackend generic(home_nest_config(0xC0117AC7), nullptr, noise);
    HomeNestBackend masked(home_nest_config(0xC0117AC7), nullptr, noise);
    EXPECT_EQ(drive_generic(generic, kRounds), want);
    EXPECT_EQ(drive_masked(masked, kRounds), want);
  }
}

TEST(BackendContract, ResetEqualsFreshConstruction) {
  for (const BackendCase& c : backend_cases()) {
    SCOPED_TRACE(c.name);
    // Dirty a backend under one seed, reset under another, and demand
    // the trajectory of a fresh instance with that second seed.
    const auto reused = c.make(0x0DD5EED);
    (void)drive_generic(*reused, kRounds);
    reused->reset(0xF4E54);
    EXPECT_EQ(reused->round(), 0u);
    EXPECT_EQ(snapshot(*reused), snapshot(*c.make(0xF4E54)));
    const auto fresh = c.make(0xF4E54);
    EXPECT_EQ(drive_generic(*reused, kRounds), drive_generic(*fresh, kRounds));
  }
}

TEST(BackendContract, StepEntryPointsAllocateNothing) {
  for (const BackendCase& c : backend_cases()) {
    SCOPED_TRACE(c.name);
    const auto backend = c.make(0xA110C);
    std::vector<Action> actions(backend->num_ants());
    std::vector<MaskedOp> op(backend->num_ants());
    std::vector<NestId> targets(backend->num_ants(), NestId{1});
    // Warm-up round: some strategies size scratch lazily on first use.
    for (AntId a = 0; a < backend->num_ants(); ++a) {
      actions[a] = action_for(1, a);
      op[a] = op_for(1, a);
    }
    (void)backend->step(actions);

    const std::uint64_t before = hh::testing::allocation_count();
    for (std::uint32_t r = 2; r <= kRounds; ++r) {
      for (AntId a = 0; a < backend->num_ants(); ++a) {
        actions[a] = action_for(r, a);
        op[a] = op_for(r, a);
      }
      (void)backend->step(actions);
      backend->step_masked_go_quiet(op, targets);
    }
    backend->reset(0xA110C);
    EXPECT_EQ(hh::testing::allocation_count() - before, 0u);
  }
}

TEST(BackendContract, MaskedLaneWorldsRoundLikeFullWorlds) {
  for (const BackendCase& c : backend_cases()) {
    SCOPED_TRACE(c.name);
    const auto full = c.make(0x1A7E5);
    const auto masked = c.build(0x1A7E5, WorldLanes::kMasked);
    EXPECT_EQ(drive_masked(*full, kRounds), drive_masked(*masked, kRounds));
    // reset == fresh holds for the lean world too.
    masked->reset(0xF4E54);
    EXPECT_EQ(snapshot(*masked),
              snapshot(*c.build(0xF4E54, WorldLanes::kMasked)));
    full->reset(0xF4E54);
    EXPECT_EQ(drive_masked(*masked, kRounds), drive_masked(*full, kRounds));
    // And its rounds allocate nothing.
    std::vector<MaskedOp> op(kAnts);
    const std::vector<NestId> targets(kAnts, NestId{1});
    const std::uint64_t before = hh::testing::allocation_count();
    for (std::uint32_t r = 1; r <= kRounds; ++r) {
      for (AntId a = 0; a < kAnts; ++a) op[a] = op_for(r, a);
      masked->step_masked_go_quiet(op, targets);
    }
    masked->reset(0xA110C);
    EXPECT_EQ(hh::testing::allocation_count() - before, 0u);
  }
}

TEST(BackendContract, MaskedLaneWorldsRefuseStep) {
  // A kMasked world holds no Outcome rows: step() is a contract
  // violation, not a lazy allocation.
  for (const BackendCase& c : backend_cases()) {
    SCOPED_TRACE(c.name);
    const auto masked = c.build(7, WorldLanes::kMasked);
    const std::vector<Action> actions(masked->num_ants(), Action::search());
    EXPECT_THROW((void)masked->step(actions), hh::ContractViolation);
    EXPECT_EQ(masked->round(), 0u);
  }
}

TEST(BackendContract, MaskedHomeNestWorldKeepsNoKnowledge) {
  HomeNestBackend masked(home_nest_config(3), nullptr, NoiseConfig{},
                         WorldLanes::kMasked);
  EXPECT_THROW((void)masked.knows(0, 1), hh::ContractViolation);
  // Validation reads the knowledge table, so a validating world must keep
  // it.
  EnvironmentConfig strict = home_nest_config(3);
  strict.enforce_model = true;
  EXPECT_THROW(
      HomeNestBackend(strict, nullptr, NoiseConfig{}, WorldLanes::kMasked),
      hh::ContractViolation);

  // Recruit rounds: the lean world resolves the same matching as the
  // full one (the knowledge stores it skips feed nothing else).
  HomeNestBackend full(home_nest_config(3));
  std::vector<MaskedOp> op(kAnts, MaskedOp::kSearch);
  std::vector<std::uint8_t> active(kAnts, 0);
  std::vector<NestId> targets(kAnts, kHomeNest);
  full.step_masked_go_quiet(op, targets);
  masked.step_masked_go_quiet(op, targets);
  for (std::uint32_t r = 2; r <= kRounds; ++r) {
    for (AntId a = 0; a < kAnts; ++a) {
      const bool recruit = (a + r) % 5 != 0;
      op[a] = recruit ? MaskedOp::kRecruit : MaskedOp::kGo;
      active[a] = recruit && (a * r) % 3 != 0 ? 1 : 0;
      targets[a] = full.location(a) == kHomeNest ? NestId{1} : full.location(a);
    }
    full.step_masked_recruit_quiet(op, active, targets);
    masked.step_masked_recruit_quiet(op, active, targets);
    EXPECT_EQ(snapshot(full), snapshot(masked)) << "round " << r;
    const std::span<const AntId> want = full.successful_recruiters();
    const std::span<const AntId> got = masked.successful_recruiters();
    EXPECT_TRUE(std::ranges::equal(want, got)) << "round " << r;
    for (AntId a = 0; a < kAnts; ++a) {
      if (op[a] == MaskedOp::kRecruit) {
        EXPECT_EQ(full.recruit_results()[a], masked.recruit_results()[a]);
      }
      EXPECT_EQ(full.recruited_by_ant(a), masked.recruited_by_ant(a));
    }
    EXPECT_EQ(full.last_round_stats().successful_recruitments,
              masked.last_round_stats().successful_recruitments);
  }
}

TEST(BackendContract, RecruitEntryPointsAreContractGated) {
  // Worlds without a recruitment process inherit the throwing default;
  // the home-nest world overrides it.
  LatticeConfig cfg;
  LatticeBackend lattice(4, cfg, 7);
  std::vector<MaskedOp> op(4, MaskedOp::kRecruit);
  const std::vector<std::uint8_t> active(4, 1);
  const std::vector<NestId> targets(4, 0);
  EXPECT_THROW(lattice.step_masked_recruit_quiet(op, active, targets),
               hh::ContractViolation);
}

}  // namespace
}  // namespace hh::env
