// Bit-for-bit pins of the paper's Algorithm 1 (PermutationPairing), at two
// levels:
//
//   * the matching and the stream: digests of recruited_by/
//     recruit_succeeded plus the next shared-stream word after the call,
//     over a fixed grid of request counts (around and across the
//     128-word BatchedDraws refill block), active shares and rng seeds;
//     and a randomized comparison against a literal reference kept here —
//     the Fisher–Yates shuffle and the acceptance loop written with one
//     rng.uniform_u64 call per draw, no batching, no compaction;
//   * whole runs: per-trial outcomes of permutation-paired simple, quorum
//     and optimal colonies at n = 1024, k = 8, on both engines.
//
// The expected values were recorded from the branchy acceptance loop that
// predates the compacted, predicated one. The golden store
// (tests/data/pr8_golden_store) pins permutation runs too, but only at
// n <= 48, where no call fills a whole refill block; and the
// scalar-vs-packed checks cannot see a drift, since both engines share
// pair_active.
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "env/pairing.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hh::env {
namespace {

/// Algorithm 1 as the paper states it: P is a uniformly random
/// permutation of R (Fisher–Yates from the top, as util::shuffle draws
/// it); in P-order, each active ant not yet recruited draws a' uniformly
/// from all of R, and the pair is added iff a' is in no pair yet.
void reference_pairing(std::span<const std::uint8_t> active, util::Rng& rng,
                       std::vector<std::int32_t>& recruited_by,
                       std::vector<std::uint8_t>& recruit_succeeded) {
  const std::size_t m = active.size();
  recruited_by.assign(m, kNotRecruited);
  recruit_succeeded.assign(m, 0);
  std::vector<std::uint32_t> perm(m);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = m; i > 1; --i) {
    const std::size_t j = rng.uniform_u64(i);
    std::swap(perm[i - 1], perm[j]);
  }
  for (const std::uint32_t x : perm) {
    if (active[x] == 0 || recruited_by[x] != kNotRecruited) continue;
    const std::size_t chosen = rng.uniform_u64(m);
    if (recruit_succeeded[chosen] != 0 ||
        recruited_by[chosen] != kNotRecruited) {
      continue;
    }
    recruit_succeeded[x] = 1;
    recruited_by[chosen] = static_cast<std::int32_t>(x);
  }
}

std::vector<std::uint8_t> flags_at_share(std::size_t m, double share,
                                         std::uint64_t shape_seed) {
  util::Rng shape(shape_seed);
  std::vector<std::uint8_t> active(m);
  for (auto& b : active) b = shape.uniform_double() < share ? 1 : 0;
  return active;
}

void hash_matching(util::Fnv64& h, const PairingScratch& scratch) {
  h.u64(scratch.recruited_by.size());
  for (const std::int32_t r : scratch.recruited_by) {
    h.u32(static_cast<std::uint32_t>(r));
  }
  for (const std::uint8_t s : scratch.recruit_succeeded) h.u8(s);
}

struct DigestPin {
  std::size_t m;
  std::uint64_t digest;
};

// One digest per request count m over active shares
// {0, 0.1, 0.5, 0.9, 1} x rng seeds {1, 0x5EED, 0x9A12170000000001}: the
// matching, then the next word of the stream the call drew from.
constexpr DigestPin kDigests[] = {
    {1, 0xaaac62fc1beadf8fULL}, {2, 0x3520c63958520094ULL},
    {3, 0x12f44e820768b039ULL}, {17, 0x83f1222b5bd441caULL},
    {64, 0xff09f1b01d5c9b68ULL}, {127, 0x88565273bc49b9a4ULL},
    {128, 0x1ab2e305844b6bc7ULL}, {129, 0x6173f37d27695c52ULL},
    {257, 0x0b3a306ce4c47fadULL}, {1000, 0xea754abf772e5009ULL},
    {1024, 0xac766208e33dc48dULL}, {4096, 0xcf0dbe3497a252a8ULL},
    {65536, 0x46c48323446e5972ULL},
};

TEST(PermutationPins, MatchingAndStreamDigestsOverFixedGrid) {
  const PermutationPairing model;
  PairingScratch scratch;
  scratch.reserve(65536);
  for (const DigestPin& pin : kDigests) {
    util::Fnv64 h;
    int share_index = 0;
    for (const double share : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      const auto active =
          flags_at_share(pin.m, share, 1000 * pin.m + share_index++);
      for (const std::uint64_t seed :
           {1ULL, 0x5EEDULL, 0x9A12170000000001ULL}) {
        util::Rng rng(seed);
        model.pair_active(active, rng, scratch);
        hash_matching(h, scratch);
        h.u64(rng());
      }
    }
    EXPECT_EQ(h.digest(), pin.digest)
        << "m = " << pin.m << ": actual digest 0x" << std::hex << h.digest();
  }
}

TEST(PermutationPins, MatchesSequentialReferenceOnRandomizedInputs) {
  const PermutationPairing model;
  PairingScratch scratch;
  util::Rng shape(0xA1601);
  std::vector<std::int32_t> ref_by;
  std::vector<std::uint8_t> ref_ok;
  for (int trial = 0; trial < 600; ++trial) {
    // Mostly small m, where self-recruitment and collisions are dense;
    // every 8th trial spans several refill blocks.
    const std::size_t m =
        1 + static_cast<std::size_t>(
                shape.uniform_u64(trial % 8 == 0 ? 5000 : 300));
    const double share = shape.uniform_double();
    const std::uint64_t seed = shape();
    const auto active = flags_at_share(m, share, shape());
    util::Rng rng(seed);
    util::Rng ref_rng(seed);
    model.pair_active(active, rng, scratch);
    reference_pairing(active, ref_rng, ref_by, ref_ok);
    ASSERT_EQ(scratch.recruited_by, ref_by) << "trial " << trial << " m " << m;
    ASSERT_EQ(scratch.recruit_succeeded, ref_ok)
        << "trial " << trial << " m " << m;
    ASSERT_EQ(rng(), ref_rng()) << "stream position, trial " << trial
                                << " m " << m;
  }
}

struct TrialPin {
  core::AlgorithmKind kind;
  std::uint64_t seed;
  bool converged;
  std::uint32_t rounds;
  std::uint32_t rounds_executed;
  NestId winner;
  std::uint64_t recruitments;
  std::uint64_t tandem_runs;
  std::uint64_t transports;
};

// n = 1024, k = 8 (four bad nests), permutation pairing, rounds capped at
// 1000 as in the served sweep. Fields: kind, seed | converged, rounds,
// rounds_executed, winner, total recruitments, tandem runs, transports.
constexpr TrialPin kTrialPins[] = {
    {core::AlgorithmKind::kSimple, 1, true, 48, 48, 2, 5175, 5175, 0},
    {core::AlgorithmKind::kSimple, 2, true, 66, 66, 3, 7393, 7393, 0},
    {core::AlgorithmKind::kSimple, 3, true, 54, 54, 3, 6174, 6174, 0},
    {core::AlgorithmKind::kQuorum, 1, true, 60, 60, 2, 7752, 1228, 6524},
    {core::AlgorithmKind::kQuorum, 2, false, 0, 1000, 0, 291926, 6554, 285372},
    {core::AlgorithmKind::kQuorum, 3, true, 78, 78, 2, 9459, 1596, 7863},
    {core::AlgorithmKind::kOptimal, 1, true, 57, 57, 2, 14503, 256, 14247},
    {core::AlgorithmKind::kOptimal, 2, true, 69, 69, 3, 18715, 254, 18461},
    {core::AlgorithmKind::kOptimal, 3, true, 65, 65, 2, 15762, 358, 15404},
};

TEST(PermutationPins, TrialOutcomesOnBothEngines) {
  for (const TrialPin& pin : kTrialPins) {
    for (const core::EngineKind engine :
         {core::EngineKind::kPacked, core::EngineKind::kScalar}) {
      core::SimulationConfig cfg;
      cfg.num_ants = 1024;
      cfg.qualities = core::SimulationConfig::binary_qualities(8, 4);
      cfg.max_rounds = 1000;
      cfg.seed = pin.seed;
      cfg.pairing = PairingKind::kPermutation;
      cfg.engine = engine;
      core::Simulation sim(cfg, pin.kind);
      const core::RunResult r = sim.run();
      const std::string label =
          std::string(core::algorithm_name(pin.kind)) +
          " seed=" + std::to_string(pin.seed) +
          (engine == core::EngineKind::kPacked ? " packed" : " scalar");
      ASSERT_EQ(r.engine, engine) << label;
      EXPECT_EQ(r.converged, pin.converged) << label;
      EXPECT_EQ(r.rounds, pin.rounds) << label;
      EXPECT_EQ(r.rounds_executed, pin.rounds_executed) << label;
      EXPECT_EQ(r.winner, pin.winner) << label;
      EXPECT_EQ(r.total_recruitments, pin.recruitments) << label;
      EXPECT_EQ(r.total_tandem_runs, pin.tandem_runs) << label;
      EXPECT_EQ(r.total_transports, pin.transports) << label;
    }
  }
}

}  // namespace
}  // namespace hh::env
