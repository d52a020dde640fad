#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace hh::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ReseedResetsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, DifferentSeedsProduceDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformU64BoundOneIsAlwaysZero) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(Rng, UniformU64ZeroBoundThrows) {
  Rng rng(5);
  EXPECT_THROW((void)rng.uniform_u64(0), ContractViolation);
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(6);
  constexpr std::uint64_t kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> hist(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++hist[rng.uniform_u64(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(hist[b], expected, 5 * std::sqrt(expected)) << "bucket " << b;
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntInvalidRangeThrows) {
  Rng rng(10);
  EXPECT_THROW((void)rng.uniform_int(2, 1), ContractViolation);
}

TEST(Rng, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng rng(12);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.uniform_double();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));  // clamped
    EXPECT_TRUE(rng.bernoulli(1.5));    // clamped
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(14);
  constexpr int kDraws = 100000;
  for (double p : {0.1, 0.25, 0.5, 0.9}) {
    int hits = 0;
    for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, p, 0.01) << "p=" << p;
  }
}

TEST(Rng, SplitProducesIndependentLookingStream) {
  Rng parent(15);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child()) ? 1 : 0;
  EXPECT_LE(same, 1);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), std::numeric_limits<std::uint64_t>::max());
}

TEST(Shuffle, PreservesElements) {
  Rng rng(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Shuffle, HandlesEmptyAndSingleton) {
  Rng rng(17);
  std::vector<int> empty;
  shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  shuffle(one, rng);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RandomPermutation, IsAPermutation) {
  Rng rng(18);
  const auto perm = random_permutation(100, rng);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RandomPermutation, AllPositionsRoughlyUniform) {
  // Element 0 should land in each of the 4 slots ~25% of the time.
  Rng rng(19);
  constexpr int kTrials = 40000;
  std::vector<int> where(4, 0);
  for (int t = 0; t < kTrials; ++t) {
    const auto perm = random_permutation(4, rng);
    for (std::size_t i = 0; i < 4; ++i) {
      if (perm[i] == 0) ++where[i];
    }
  }
  for (int slot = 0; slot < 4; ++slot) {
    EXPECT_NEAR(where[slot], kTrials / 4, 5 * std::sqrt(kTrials / 4.0))
        << "slot " << slot;
  }
}

TEST(MixSeed, DeterministicAndSensitiveToAllInputs) {
  EXPECT_EQ(mix_seed(1, 2, 3), mix_seed(1, 2, 3));
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(1, 2, 4));
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(1, 3, 3));
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(2, 2, 3));
}

TEST(MixSeed, PrefixHoistIsExact) {
  // The identity the counter-keyed pairing loop relies on to hoist the
  // (seed, round) half of the key out of its per-slot loop.
  for (std::uint64_t seed : {0ull, 1ull, 0x9A1217ull, ~0ull}) {
    for (std::uint64_t a : {0ull, 1ull, 7ull, 1ull << 20}) {
      for (std::uint64_t b : {0ull, 1ull, 4095ull, ~0ull}) {
        EXPECT_EQ(mix_seed(seed, a, b), mix_seed(mix_seed_prefix(seed, a), 0, b));
      }
    }
  }
}

TEST(SplitMix64, BoundedRespectsBoundAndIsDeterministic) {
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 1000ull, 1ull << 40}) {
    SplitMix64 a(0xABCD);
    SplitMix64 b(0xABCD);
    for (int i = 0; i < 200; ++i) {
      const auto v = a.bounded(bound);
      EXPECT_LT(v, bound);
      EXPECT_EQ(v, b.bounded(bound));
    }
  }
}

TEST(SplitMix64, BoundedIsRoughlyUniform) {
  // Same Lemire scheme as Rng::uniform_u64, so the same sanity bar: 16
  // buckets, each within 5 sigma of the mean.
  SplitMix64 s(0x1234);
  constexpr std::uint64_t kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> hist(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++hist[s.bounded(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (std::uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(hist[b], expected, 5 * std::sqrt(expected)) << "bucket " << b;
  }
}

// ---------------------------------------------------------------------------
// Batched generation. The contract for all three batched entry points is
// EXACT sequence equivalence: same values AND same final generator state as
// the one-at-a-time calls they replace. Anything weaker would silently
// change every seeded execution that goes through a batched path.
// ---------------------------------------------------------------------------

TEST(RngBatch, FillU64MatchesSequentialCalls) {
  for (std::size_t len : {0u, 1u, 3u, 64u, 257u}) {
    Rng batched(0x11);
    Rng looped(0x11);
    std::vector<std::uint64_t> out(len, 0);
    batched.fill_u64(out);
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(out[i], looped());
    EXPECT_EQ(batched(), looped());  // final states identical too
  }
}

TEST(RngBatch, UniformU64IntoMatchesSequentialCalls) {
  // Includes an adversarial bound just above 2^63 (the worst Lemire case:
  // ~50% rejection, so the refill path is exercised heavily) and tiny
  // bounds (never reject).
  for (std::uint64_t bound :
       {1ull, 2ull, 7ull, 1000ull, (1ull << 63) + 1ull}) {
    for (std::size_t len : {1u, 5u, 128u, 300u}) {
      Rng batched(0x22);
      Rng looped(0x22);
      std::vector<std::uint64_t> out(len, 0);
      batched.uniform_u64_into(out, bound);
      for (std::size_t i = 0; i < len; ++i) {
        EXPECT_EQ(out[i], looped.uniform_u64(bound))
            << "bound=" << bound << " len=" << len << " i=" << i;
      }
      EXPECT_EQ(batched(), looped());
    }
  }
}

TEST(RngBatch, BatchedDrawsMatchSequentialWithLowerBoundRemaining) {
  // BatchedDraws only requires `remaining` to be a LOWER bound on the
  // number of uniform() calls still to come. Drive it with the loosest
  // legal bound (always 1) and an exact bound; both must reproduce the
  // sequential stream exactly.
  constexpr int kDraws = 500;
  for (const bool exact : {false, true}) {
    Rng batched(0x33);
    Rng looped(0x33);
    BatchedDraws draws(batched);
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t bound = 1 + static_cast<std::uint64_t>(i % 97);
      const std::size_t remaining =
          exact ? static_cast<std::size_t>(kDraws - i) : 1u;
      EXPECT_EQ(draws.uniform(bound, remaining), looped.uniform_u64(bound));
    }
    EXPECT_EQ(batched(), looped());
  }
}

TEST(RngBatch, PredicatedDrawsConsumeOnlyWhenTaken) {
  // uniform_if(take, ...) must reproduce the sequential stream over the
  // taken calls alone, with skipped calls in between consuming nothing
  // and still returning a value in range — also right after a block is
  // spent, and through Lemire's rejection loop, which a bound just above
  // 2^63 enters for about half its draws.
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{1000},
        (std::uint64_t{1} << 63) + 1}) {
    Rng batched(0x55);
    Rng looped(0x55);
    Rng pattern(0x66);
    std::vector<std::uint32_t> takes(700);
    for (auto& t : takes) t = pattern.bernoulli(0.4) ? 1u : 0u;
    std::size_t taken_left = 0;
    for (const std::uint32_t t : takes) taken_left += t;
    BatchedDraws draws(batched);
    for (const std::uint32_t take : takes) {
      const std::uint64_t got =
          draws.uniform_if(take, bound, take != 0 ? taken_left : 1);
      EXPECT_LT(got, bound);
      if (take != 0) {
        EXPECT_EQ(got, looped.uniform_u64(bound)) << "bound " << bound;
        --taken_left;
      }
    }
    EXPECT_EQ(batched(), looped()) << "bound " << bound;
  }
}

TEST(RngBatch, RandomPermutationUnchangedByBatching) {
  // random_permutation_into() switched to block-refilled draws; the
  // permutation and the post-call generator state must match the
  // reference one-draw-at-a-time Fisher-Yates it replaced.
  for (std::size_t n : {0u, 1u, 2u, 13u, 200u}) {
    Rng batched(0x44);
    Rng looped(0x44);
    std::vector<std::uint32_t> got;
    random_permutation_into(got, n, batched);
    std::vector<std::uint32_t> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(looped.uniform_u64(i));
      std::swap(want[i - 1], want[j]);
    }
    EXPECT_EQ(got, want) << "n=" << n;
    EXPECT_EQ(batched(), looped()) << "n=" << n;
  }
}

}  // namespace
}  // namespace hh::util
