// Deterministic pseudo-random number generation for simulations.
//
// Every randomized component in the library takes an explicit seed; given the
// same seed a simulation is a pure function of its configuration. We use
// xoshiro256** (public-domain algorithm by Blackman & Vigna) seeded through
// SplitMix64, rather than std::mt19937_64, because
//   * its output sequence is stable across standard-library implementations,
//     so recorded experiment outputs are reproducible anywhere, and
//   * it is ~3x faster, which matters for the O(n * k log n) round loops.
#ifndef HH_UTIL_RNG_HPP
#define HH_UTIL_RNG_HPP

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/contracts.hpp"

namespace hh::util {

/// SplitMix64: tiny generator used to expand a 64-bit seed into the
/// xoshiro256** state. Also usable standalone for cheap hashing.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 pseudo-random bits.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound) via Lemire multiply-shift rejection —
  /// the same unbiased method as Rng::uniform_u64, so counter-keyed
  /// streams (env::CounterLotteryPairing) share the main generator's
  /// distribution guarantees. Requires bound > 0.
  constexpr std::uint64_t bounded(std::uint64_t bound) noexcept {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the library's workhorse generator.
///
/// Satisfies std::uniform_random_bit_generator so it composes with <random>
/// and std::shuffle, but prefer the member helpers (uniform_u64, bernoulli,
/// ...) which are reproducible across platforms (std::distributions are not).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept { reseed(seed); }

  /// Re-seed in place (resets the stream).
  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 pseudo-random bits (xoshiro256** step).
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t bound) {
    HH_EXPECTS(bound > 0);
    // Fast path covers bound << 2^64; rejection loop is O(1) expected.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    HH_EXPECTS(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // span == 0 means the full 64-bit range.
    const std::uint64_t draw = (span == 0) ? (*this)() : uniform_u64(span);
    return lo + static_cast<std::int64_t>(draw);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform_double() < p;
  }

  /// Fill `out` with the next out.size() raw 64-bit words — the identical
  /// values and final generator state as calling operator()() in a loop,
  /// but with the 256-bit state held in registers across the block instead
  /// of being loaded and stored per draw. The bulk-refill primitive under
  /// uniform_u64_into() and BatchedDraws.
  void fill_u64(std::span<std::uint64_t> out) noexcept {
    std::uint64_t s0 = s_[0];
    std::uint64_t s1 = s_[1];
    std::uint64_t s2 = s_[2];
    std::uint64_t s3 = s_[3];
    for (std::uint64_t& o : out) {
      o = rotl(s1 * 5, 7) * 9;
      const std::uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = rotl(s3, 45);
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

  /// Fill `out` with out.size() uniform draws from [0, bound) — the exact
  /// values, in the exact order, with the exact final stream state, of
  /// out.size() sequential uniform_u64(bound) calls. Batched Lemire: the
  /// raw words are bulk-generated with fill_u64 into `out` itself and
  /// consumed in order (a rejection simply consumes the next buffered
  /// word; an exhausted tail is refilled over the already-consumed
  /// positions), so no scratch buffer and no allocation. Requires
  /// bound > 0.
  void uniform_u64_into(std::span<std::uint64_t> out, std::uint64_t bound) {
    HH_EXPECTS(bound > 0);
    if (out.empty()) return;
    fill_u64(out);
    // Rejection iff lo < threshold; threshold < bound, so the sequential
    // path's `lo < bound` fast-path test is subsumed.
    const std::uint64_t threshold = (0 - bound) % bound;
    std::size_t w = 0;  // results written
    std::size_t r = 0;  // raw words consumed
    while (w < out.size()) {
      if (r == out.size()) {
        // Rejections consumed the tail; positions >= w are dead raws.
        fill_u64(out.subspan(w));
        r = w;
      }
      const std::uint64_t x = out[r++];
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      if (static_cast<std::uint64_t>(m) < threshold) continue;  // rejected
      out[w++] = static_cast<std::uint64_t>(m >> 64);
    }
  }

  /// Derive an independent child stream (for per-ant or per-trial streams).
  [[nodiscard]] Rng split() noexcept { return Rng((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Exact-sequence batched bounded draws over an Rng, for loops whose
/// bounds vary per draw (Fisher–Yates) or whose draw count is data-
/// dependent (the Algorithm 1 pairing loop) — the cases uniform_u64_into
/// cannot serve. Raw words are prefetched with Rng::fill_u64 in blocks
/// sized by a caller-supplied LOWER bound on the number of drawing calls
/// still to come; since every such call consumes at least one word, a
/// block never outlives the promised draws, so the words consumed — and
/// therefore the generator state at every point — are exactly those of
/// the equivalent sequential uniform_u64 calls. Over-promising the floor
/// would leave prefetched words unconsumed and desynchronize the stream;
/// callers must pass a genuine lower bound (1 is always safe).
class BatchedDraws {
 public:
  explicit BatchedDraws(Rng& rng) noexcept : rng_(rng) { buf_[0] = kPastEnd; }

  /// The same value, and the same stream advance, as rng.uniform_u64(
  /// bound). `remaining` is a lower bound on the drawing calls still to
  /// come, INCLUDING this one (so >= 1). Requires bound > 0.
  std::uint64_t uniform(std::uint64_t bound, std::size_t remaining) {
    return uniform_if(1, bound, remaining);
  }

  /// uniform() behind a data-dependent predicate, without a branch on it.
  /// take == 1 is a drawing call: exactly uniform(bound, remaining).
  /// take == 0 consumes nothing and returns a value in [0, bound) the
  /// caller must discard (the candidate of the next buffered word, or of
  /// kPastEnd once the block is spent). The buffer position advances by
  /// `take` instead of behind a branch on it; only a drawing call may
  /// refill the buffer or take Lemire's exact rejection path, and both
  /// stay branches that are almost never taken, so the words consumed
  /// are those of the sequential calls. Requires take <= 1 and
  /// bound > 0; `remaining` counts drawing calls only.
  std::uint64_t uniform_if(std::uint32_t take, std::uint64_t bound,
                           std::size_t remaining) {
    if (pos_ == len_ && take != 0) [[unlikely]] refill(remaining);
    __uint128_t m = static_cast<__uint128_t>(buf_[pos_]) * bound;
    if (static_cast<std::uint64_t>(m) < bound && take != 0) [[unlikely]] {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (static_cast<std::uint64_t>(m) < threshold) {
        ++pos_;  // the rejected word
        if (pos_ == len_) refill(remaining);
        m = static_cast<__uint128_t>(buf_[pos_]) * bound;
      }
    }
    pos_ += take;
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static constexpr std::size_t kBlock = 128;
  /// What a non-drawing call peeks past the last buffered word: its
  /// Lemire low half, 2^64 - bound, never signals a rejection check for
  /// bound <= 2^63, and its candidate, bound - 1, is in range.
  static constexpr std::uint64_t kPastEnd = ~std::uint64_t{0};

  void refill(std::size_t remaining) {
    HH_EXPECTS(remaining >= 1);
    len_ = remaining < kBlock ? remaining : kBlock;
    rng_.fill_u64(std::span<std::uint64_t>(buf_, len_));
    buf_[len_] = kPastEnd;
    pos_ = 0;
  }

  Rng& rng_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  /// Words [0, len_) of the current block, then kPastEnd at buf_[len_]:
  /// every word a call can read (pos_ <= len_) has been written.
  std::uint64_t buf_[kBlock + 1];
};

/// Fisher–Yates shuffle of v using rng (reproducible across platforms,
/// unlike std::shuffle whose draw pattern is implementation-defined).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.uniform_u64(i);
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

/// A uniformly random permutation of {0, 1, ..., n-1}.
[[nodiscard]] std::vector<std::uint32_t> random_permutation(std::size_t n, Rng& rng);

/// Fill `out` with a uniformly random permutation of {0, 1, ..., n-1}.
/// Allocation-free once out.capacity() >= n — the hot-path form used by the
/// pairing process (see env::PairingScratch), drawing the exact same RNG
/// sequence as random_permutation().
void random_permutation_into(std::vector<std::uint32_t>& out, std::size_t n,
                             Rng& rng);

/// Stable 64-bit mix of (seed, a, b) for deriving per-entity seeds.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                                               std::uint64_t b = 0) noexcept {
  SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL));
  return sm.next();
}

/// The (seed, a) half of mix_seed's key, hoistable out of a loop over b:
///   mix_seed(seed, a, b) == mix_seed(mix_seed_prefix(seed, a), 0, b)
/// exactly, for every b. Used by the counter-keyed pairing loop, where
/// (seed, a) = (pairing seed, round) is loop-invariant and b is the slot.
[[nodiscard]] constexpr std::uint64_t mix_seed_prefix(std::uint64_t seed,
                                                      std::uint64_t a) noexcept {
  return seed ^ (a * 0x9e3779b97f4a7c15ULL);
}

}  // namespace hh::util

#endif  // HH_UTIL_RNG_HPP
