// Bit-for-bit pins of the counter-lottery pairing model, at two levels:
//
//   * the matching itself: digests of recruited_by/recruit_succeeded from
//     CounterLotteryPairing::pair_active over a fixed grid of request
//     counts, active densities, pairing seeds and keyed rounds (plus one
//     unkeyed call), and a randomized comparison against a naive reference
//     implementation of the model kept here — propose, lottery, and the
//     four-load acceptance test written out literally;
//   * whole runs: per-trial outcomes of counter-lottery colonies on both
//     engines (optimal at n = 4096, k = 8, whose packed rounds take the
//     fused counter round, plus small simple and quorum colonies).
//
// The expected values were recorded from the implementation that predates
// the branch-free acceptance and the matched-pairs-only bookkeeping walk.
// The scalar-vs-packed checks cannot see a drift here: both engines share
// pair_active, and tests/data/pr8_golden_store predates counter-lottery.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "env/pairing.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hh::env {
namespace {

/// The model as DESIGN.md §2 states it, with no compaction, no fused
/// lottery cell tricks beyond the packed (ticket | m - x) entry, and the
/// acceptance test spelled out as four loads: both endpoints must be in no
/// pair yet, as recruiter or as recruited.
void reference_pairing(std::span<const std::uint8_t> active,
                       std::uint64_t seed, std::uint32_t round,
                       std::vector<std::int32_t>& recruited_by,
                       std::vector<std::uint8_t>& recruit_succeeded) {
  const std::size_t m = active.size();
  recruited_by.assign(m, kNotRecruited);
  recruit_succeeded.assign(m, 0);
  std::vector<std::uint64_t> lottery(m, 0);
  for (std::size_t x = 0; x < m; ++x) {
    if (!active[x]) continue;
    util::SplitMix64 stream(util::mix_seed(seed, round, x));
    const auto t = static_cast<std::size_t>(stream.bounded(m));
    const std::uint64_t entry =
        (stream.next() & 0xffffffff00000000ULL) | static_cast<std::uint64_t>(m - x);
    if (entry > lottery[t]) lottery[t] = entry;
  }
  for (std::size_t t = 0; t < m; ++t) {
    if (lottery[t] == 0) continue;
    const std::size_t w = m - static_cast<std::size_t>(lottery[t] & 0xffffffffULL);
    const bool target_free =
        recruited_by[t] == kNotRecruited && recruit_succeeded[t] == 0;
    const bool recruiter_free =
        recruited_by[w] == kNotRecruited && recruit_succeeded[w] == 0;
    if (target_free && (w == t || recruiter_free)) {
      recruit_succeeded[w] = 1;
      recruited_by[t] = static_cast<std::int32_t>(w);
    }
  }
}

std::vector<std::uint8_t> flags_at_density(std::size_t m, double density,
                                           std::uint64_t shape_seed) {
  util::Rng shape(shape_seed);
  std::vector<std::uint8_t> active(m);
  for (auto& b : active) b = shape.uniform_double() < density ? 1 : 0;
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

// One digest per request count m over densities {0, 0.3, 0.7, 1} x three
// pairing seeds x keyed rounds {1, 2, 977}.
constexpr DigestPin kKeyedDigests[] = {
    {1, 0x27829091d6e70f4aULL},    {2, 0x13e310b92e56cad5ULL},
    {3, 0xbecd98ba3e67e6eeULL},    {17, 0x831cb9e0d9aefe35ULL},
    {1000, 0xbcd885080562e779ULL}, {4096, 0xafc06ed958ece80fULL},
};
constexpr std::uint64_t kUnkeyedDigest = 0xaf08feb582c7f284ULL;

TEST(CounterLotteryPins, KeyedMatchingDigestsOverFixedGrid) {
  const CounterLotteryPairing model;
  PairingScratch scratch;
  scratch.reserve(4096);
  util::Rng unused(1);
  for (const DigestPin& pin : kKeyedDigests) {
    util::Fnv64 h;
    int density_index = 0;
    for (const double density : {0.0, 0.3, 0.7, 1.0}) {
      const auto active =
          flags_at_density(pin.m, density, 1000 * pin.m + density_index++);
      for (const std::uint64_t seed :
           {1ULL, 0x5EEDULL, 0x9A12170000000001ULL}) {
        for (const std::uint32_t round : {1u, 2u, 977u}) {
          model.pair_active(active, PairingCtx{unused, seed, round}, scratch);
          hash_matching(h, scratch);
        }
      }
    }
    EXPECT_EQ(h.digest(), pin.digest)
        << "m = " << pin.m << ": actual digest 0x" << std::hex << h.digest();
  }
}

TEST(CounterLotteryPins, UnkeyedCallDigestAndSingleDraw) {
  // round == 0 derives the key from ONE draw of the shared stream.
  const CounterLotteryPairing model;
  PairingScratch scratch;
  util::Rng rng(2024);
  util::Rng mirror(2024);
  const auto active = flags_at_density(64, 0.5, 77);
  model.pair_active(active, rng, scratch);
  (void)mirror();
  EXPECT_EQ(rng(), mirror());
  util::Fnv64 h;
  hash_matching(h, scratch);
  EXPECT_EQ(h.digest(), kUnkeyedDigest)
      << "actual digest 0x" << std::hex << h.digest();
}

TEST(CounterLotteryPins, MatchesFourLoadReferenceOnRandomizedInputs) {
  const CounterLotteryPairing model;
  PairingScratch scratch;
  util::Rng shape(0xC0FFEE);
  util::Rng unused(1);
  std::vector<std::int32_t> ref_by;
  std::vector<std::uint8_t> ref_ok;
  for (int trial = 0; trial < 400; ++trial) {
    // Mostly small m, where self-proposals and chains of collisions are
    // dense; every 16th trial large.
    const std::size_t m = trial % 16 == 0
                              ? 1 + static_cast<std::size_t>(shape.uniform_u64(5000))
                              : 1 + static_cast<std::size_t>(shape.uniform_u64(40));
    const double density = shape.uniform_double();
    const std::uint64_t seed = shape();
    const auto round = 1 + static_cast<std::uint32_t>(shape.uniform_u64(1u << 20));
    const auto active = flags_at_density(m, density, shape());
    model.pair_active(active, PairingCtx{unused, seed, round}, scratch);
    reference_pairing(active, seed, round, ref_by, ref_ok);
    ASSERT_EQ(scratch.recruited_by, ref_by) << "trial " << trial << " m " << m;
    ASSERT_EQ(scratch.recruit_succeeded, ref_ok)
        << "trial " << trial << " m " << m;
  }
}

struct TrialPin {
  core::AlgorithmKind kind;
  std::uint32_t n;
  std::uint32_t k;
  std::uint64_t seed;
  bool converged;
  std::uint32_t rounds;
  std::uint32_t rounds_executed;
  NestId winner;
  std::uint64_t recruitments;
  std::uint64_t tandem_runs;
  std::uint64_t transports;
};

// Fields: kind, n, k, seed | converged, rounds, rounds_executed, winner,
// total recruitments, tandem runs, transports.
constexpr TrialPin kTrialPins[] = {
    {core::AlgorithmKind::kOptimal, 4096, 8, 1, true, 93, 93, 4, 100173, 1283, 98890},
    {core::AlgorithmKind::kOptimal, 4096, 8, 2, true, 89, 89, 4, 94918, 1297, 93621},
    {core::AlgorithmKind::kOptimal, 4096, 8, 3, true, 85, 85, 3, 88252, 1263, 86989},
    {core::AlgorithmKind::kSimple, 256, 4, 1, true, 40, 40, 1, 1519, 1519, 0},
    {core::AlgorithmKind::kSimple, 256, 4, 2, true, 42, 42, 1, 1464, 1464, 0},
    {core::AlgorithmKind::kQuorum, 256, 4, 1, true, 46, 46, 1, 2821, 128, 2693},
    {core::AlgorithmKind::kQuorum, 256, 4, 2, true, 36, 36, 1, 1839, 173, 1666},
};

TEST(CounterLotteryPins, TrialOutcomesOnBothEngines) {
  for (const TrialPin& pin : kTrialPins) {
    for (const core::EngineKind engine :
         {core::EngineKind::kPacked, core::EngineKind::kScalar}) {
      core::SimulationConfig cfg;
      cfg.num_ants = pin.n;
      cfg.qualities = core::SimulationConfig::binary_qualities(pin.k, pin.k / 2);
      cfg.seed = pin.seed;
      cfg.pairing = PairingKind::kCounter;
      cfg.engine = engine;
      core::Simulation sim(cfg, pin.kind);
      const core::RunResult r = sim.run();
      const std::string label =
          std::string(core::algorithm_name(pin.kind)) + " n=" +
          std::to_string(pin.n) + " seed=" + std::to_string(pin.seed) +
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
