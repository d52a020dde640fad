#include "env/pairing.hpp"

#include <memory>

#include "util/contracts.hpp"

namespace hh::env {

void PairingScratch::reserve(std::size_t max_requests) {
  reserve_matching(max_requests);
  perm.reserve(max_requests);
  proposal.reserve(max_requests);
  winner.reserve(max_requests);
  proposer_count.reserve(max_requests);
  ticket.reserve(max_requests);
}

void PairingScratch::reserve_matching(std::size_t max_requests) {
  recruited_by.reserve(max_requests);
  recruit_succeeded.reserve(max_requests);
  active.reserve(max_requests);
}

void PermutationPairing::reserve(PairingScratch& scratch,
                                 std::size_t max_requests) const {
  scratch.reserve_matching(max_requests);
  scratch.perm.reserve(max_requests);
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void PermutationPairing::pair_active(std::span<const std::uint8_t> active,
                                     const PairingCtx& ctx,
                                     PairingScratch& scratch) const {
  util::Rng& rng = ctx.rng;
  const std::size_t m = active.size();
  scratch.recruited_by.assign(m, kNotRecruited);
  scratch.recruit_succeeded.assign(m, 0);
  if (m == 0) return;

  // P: uniform random permutation of all ants in R (Algorithm 1, tie-breaker).
  util::random_permutation_into(scratch.perm, m, rng);

  // Line 3's first test, "active", is fixed for the whole call, so P is
  // compacted in place to its active entries first (unconditional store,
  // predicated advance; P-order kept). The flags are irregular, so a skip
  // inside the loop below would mispredict at every transition.
  std::uint32_t* const order = scratch.perm.data();
  const std::uint8_t* const flags = active.data();
  std::size_t n_active = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t x = order[i];
    order[n_active] = x;
    n_active += flags[x] != 0 ? 1u : 0u;
  }

  // The draw count of the loop below is data-dependent (an active ant
  // visited after being recruited draws nothing), so BatchedDraws needs a
  // running LOWER bound on the draws still to come. Track u = active ants
  // neither visited nor recruited yet: each future draw removes one such
  // ant by drawing and at most one more by recruiting it, and the current
  // draw can recruit one too, so u <= 2*future + 1, i.e. at least
  // 1 + floor((u - 1) / 2) draws (including the current one) remain.
  // Re-decrementing u for a chosen ant that already drew only tightens
  // the bound, so no visited bookkeeping is needed. u may thereby go
  // negative; it only ever decreases, so max(0, u) is the counter clamped
  // at 0 after every step, and the bound reads it that way.
  auto u = static_cast<std::ptrdiff_t>(n_active);
  util::BatchedDraws draws(rng);

  // First loop of Algorithm 1: build M in permutation order, deciding and
  // storing without a branch on the data. An entry is `eligible` (line
  // 3's second test) iff it has not been recruited; only an eligible
  // entry draws, through the predicated uniform_if, which advances the
  // stream by `eligible`. A non-drawing entry still computes a candidate,
  // and line 5's test then fails on `eligible` alone. Line 5 is two loads
  // for the same reason as the counter model's acceptance: recruit_
  // succeeded[x] is still 0 (only x's own visit writes it), and the two
  // tests on a' fold into integer arithmetic (kNotRecruited is the only
  // negative recruited_by value). Both stores are unconditional: a
  // rejected or non-drawing entry rewrites the values the cells hold.
  // (Raw lane pointers: the byte stores may alias anything.)
  std::uint8_t* const succeeded = scratch.recruit_succeeded.data();
  std::int32_t* const recruited_by = scratch.recruited_by.data();
  for (std::size_t i = 0; i < n_active; ++i) {
    const std::uint32_t x = order[i];
    const std::uint32_t eligible =
        static_cast<std::uint32_t>(recruited_by[x]) >> 31;
    u -= eligible;  // x leaves the pool by drawing now
    const std::size_t remaining =
        1 + (u > 0 ? static_cast<std::size_t>(u - 1) / 2 : 0);
    // Line 4: a' drawn uniformly from ALL of R — self-recruitment possible.
    const auto chosen =
        static_cast<std::size_t>(draws.uniform_if(eligible, m, remaining));
    // Line 5: a' must not already be a recruiter nor recruited; no retry,
    // a recruiter that fails simply fails this round.
    const std::int32_t held = recruited_by[chosen];
    const std::uint32_t ok = eligible & (succeeded[chosen] ^ 1u) &
                             (static_cast<std::uint32_t>(held) >> 31);
    succeeded[x] = static_cast<std::uint8_t>(ok);
    recruited_by[chosen] = ok != 0 ? static_cast<std::int32_t>(x) : held;
    // A recruited active ant other than x will not draw.
    u -= ok & (flags[chosen] != 0 ? 1u : 0u) & (chosen != x ? 1u : 0u);
  }
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void UniformProposalPairing::pair_active(std::span<const std::uint8_t> active,
                                         const PairingCtx& ctx,
                                         PairingScratch& scratch) const {
  util::Rng& rng = ctx.rng;
  const std::size_t m = active.size();
  scratch.recruited_by.assign(m, kNotRecruited);
  scratch.recruit_succeeded.assign(m, 0);
  if (m == 0) return;

  // Phase 1: every active ant commits to a proposal target up front.
  // The draw count is known (one per active ant), so the draws are bulk-
  // generated into the u64 lane and scattered — same values, same order,
  // same stream advance as drawing inside the loop.
  std::size_t n_active = 0;
  for (const std::uint8_t b : active) n_active += b ? 1u : 0u;
  scratch.ticket.resize(n_active);  // lint: capacity-reserved
  rng.uniform_u64_into(std::span<std::uint64_t>(scratch.ticket.data(), n_active),
                       m);
  scratch.proposal.assign(m, kNotRecruited);
  std::size_t next_draw = 0;
  for (std::size_t x = 0; x < m; ++x) {
    if (active[x]) {
      scratch.proposal[x] =
          static_cast<std::int32_t>(scratch.ticket[next_draw++]);
    }
  }

  // Phase 2: per-target lottery — each proposed-to ant keeps one proposer
  // uniformly at random (reservoir sampling over its proposers). Exactly
  // one draw per proposer, so the remaining-draw count is exact.
  scratch.winner.assign(m, kNotRecruited);
  scratch.proposer_count.assign(m, 0);
  util::BatchedDraws draws(rng);
  std::size_t lottery_left = n_active;
  for (std::size_t x = 0; x < m; ++x) {
    if (scratch.proposal[x] == kNotRecruited) continue;
    const auto t = static_cast<std::size_t>(scratch.proposal[x]);
    ++scratch.proposer_count[t];
    if (draws.uniform(scratch.proposer_count[t], lottery_left) == 0) {
      scratch.winner[t] = static_cast<std::int32_t>(x);
    }
    --lottery_left;
  }

  // Phase 3: accept tentative matches in random order; endpoints exclusive.
  util::random_permutation_into(scratch.perm, m, rng);
  for (std::uint32_t t : scratch.perm) {
    if (scratch.winner[t] == kNotRecruited) continue;
    const auto w = static_cast<std::size_t>(scratch.winner[t]);
    const bool target_free = scratch.recruited_by[t] == kNotRecruited &&
                             scratch.recruit_succeeded[t] == 0;
    const bool recruiter_free = scratch.recruited_by[w] == kNotRecruited &&
                                scratch.recruit_succeeded[w] == 0;
    // Self-proposal: the single endpoint only needs to be free once.
    if (w == t) {
      if (target_free) {
        scratch.recruit_succeeded[w] = 1;
        scratch.recruited_by[t] = static_cast<std::int32_t>(w);
      }
      continue;
    }
    if (target_free && recruiter_free) {
      scratch.recruit_succeeded[w] = 1;
      scratch.recruited_by[t] = static_cast<std::int32_t>(w);
    }
  }
}

void CounterLotteryPairing::reserve(PairingScratch& scratch,
                                    std::size_t max_requests) const {
  scratch.reserve_matching(max_requests);
  scratch.proposal.reserve(max_requests);  // compaction arena
  scratch.winner.reserve(max_requests);    // proposed-to targets
  scratch.ticket.reserve(max_requests);    // lottery cells
}

// lint: no-alloc (steady-state round; runtime-pinned by test_hotpath)
void CounterLotteryPairing::pair_active(std::span<const std::uint8_t> active,
                                        const PairingCtx& ctx,
                                        PairingScratch& scratch) const {
  const std::size_t m = active.size();
  scratch.recruited_by.assign(m, kNotRecruited);
  scratch.recruit_succeeded.assign(m, 0);
  if (m == 0) return;

  // Keyed calls (the engine path) draw nothing from the shared stream;
  // unkeyed ad-hoc calls derive an ephemeral key with one draw so the
  // matching stays a deterministic function of the rng state.
  const bool keyed = ctx.round != 0;
  const std::uint64_t seed = keyed ? ctx.seed : ctx.rng();
  const std::uint64_t round = keyed ? ctx.round : 1u;

  // Fused propose + lottery pass: slot x's draws come from its own
  // counter stream, so no slot reads another slot's randomness and the
  // loop carries no data dependence beyond the per-target lottery cell.
  // That cell is ONE u64 in the ticket lane — (ticket high half << 32) |
  // (m - x), 0 = no proposer yet — rather than separate winner/ticket
  // lanes: the lottery's random scatter then touches half the cache
  // lines, which is what the propose loop's throughput is bound by at
  // large m. Max keeps the highest ticket; equal 32-bit tickets (~2^-32
  // per colliding pair) fall through to the slot code, where the EARLIER
  // slot carries the larger m - x — so ties keep the earlier slot and
  // the result is order-independent. m - x is never 0, so a real entry
  // never collides with the empty sentinel.
  // The (seed, round) half of the mix_seed() key is loop-invariant;
  // hoisting it (mix_seed_prefix) leaves one multiply + one SplitMix64
  // squeeze per slot and produces bit-identical keys.
  scratch.ticket.assign(m, 0);
  const std::uint64_t key_prefix = util::mix_seed_prefix(seed, round);

  // Compact the active slots into a dense index list first (branchless:
  // unconditional store, predicated advance). The flags are irregular at
  // steady state, so `if (!active[x]) continue` inside the propose loop
  // costs a mispredict every transition; a 3-op/slot compaction pass
  // followed by a branch-free sweep over the survivors is cheaper for
  // every density. Slot order is preserved, so draws and tie-breaks are
  // identical to the naive scan. The proposal lane is the counter
  // model's compaction arena (the sequential models own it otherwise).
  scratch.proposal.resize(m);  // lint: capacity-reserved
  std::size_t n_active = 0;
  for (std::size_t x = 0; x < m; ++x) {
    scratch.proposal[n_active] = static_cast<std::int32_t>(x);
    n_active += active[x] ? 1u : 0u;
  }
  for (std::size_t i = 0; i < n_active; ++i) {
    const auto x = static_cast<std::size_t>(
        static_cast<std::uint32_t>(scratch.proposal[i]));
    util::SplitMix64 stream(util::mix_seed(key_prefix, 0, x));
    const auto t = static_cast<std::size_t>(stream.bounded(m));
    const std::uint64_t entry = (stream.next() & 0xffffffff00000000ULL) |
                                static_cast<std::uint64_t>(m - x);
    // Max as a select with an unconditional store: whether a later
    // proposer outbids the cell is a coin flip, so a branch would
    // mispredict on every contested target.
    const std::uint64_t held = scratch.ticket[t];
    scratch.ticket[t] = entry > held ? entry : held;
  }

  // Acceptance in target-index order, draw-free. Tentative matches are
  // exchangeable across slots (the draws above are iid per slot), so a
  // fixed order yields the same matching distribution as the uniform-
  // proposal model's random-permutation acceptance. Same compaction
  // trick: gather the proposed-to targets (winner lane as arena), then
  // resolve them scan-free in ascending-t order.
  scratch.winner.resize(m);  // lint: capacity-reserved
  std::size_t n_hit = 0;
  for (std::size_t t = 0; t < m; ++t) {
    scratch.winner[n_hit] = static_cast<std::int32_t>(t);
    n_hit += scratch.ticket[t] != 0 ? 1u : 0u;
  }
  // A pair (w, t) needs both endpoints in no pair yet, which reads as four
  // loads, but two of them are known when t is visited: recruited_by[t] is
  // still unset, because only t's own visit writes it; and
  // recruit_succeeded[w] is still 0, because w proposed to t alone and so
  // can win nowhere else. What is left is "t has not recruited and w has
  // not been recruited" — which also covers a self-proposal (w == t),
  // since recruited_by[t] is unset. Both stores are then unconditional:
  // a rejected pair rewrites the values the two cells already hold. `ok`
  // stays integer arithmetic (recruit_succeeded is 0/1, and kNotRecruited
  // is the only negative recruited_by value): GCC turns a bool && / & back
  // into two branches, which the irregular accept/reject pattern defeats.
  // (Raw lane pointers: the byte stores below may alias anything, so
  // vector-member loads would be repeated every iteration.)
  const std::int32_t* const hits = scratch.winner.data();
  const std::uint64_t* const lottery = scratch.ticket.data();
  std::uint8_t* const succeeded = scratch.recruit_succeeded.data();
  std::int32_t* const recruited_by = scratch.recruited_by.data();
  for (std::size_t i = 0; i < n_hit; ++i) {
    const auto t =
        static_cast<std::size_t>(static_cast<std::uint32_t>(hits[i]));
    const auto w = static_cast<std::size_t>(
        m - static_cast<std::size_t>(lottery[t] & 0xffffffffULL));
    const std::uint32_t w_unrecruited =
        static_cast<std::uint32_t>(recruited_by[w]) >> 31;
    const std::uint32_t ok = (succeeded[t] ^ 1u) & w_unrecruited;
    succeeded[w] = static_cast<std::uint8_t>(ok);
    recruited_by[t] = ok != 0 ? static_cast<std::int32_t>(w) : kNotRecruited;
  }
}

std::string_view pairing_name(PairingKind kind) {
  switch (kind) {
    case PairingKind::kPermutation: return "permutation";
    case PairingKind::kUniformProposal: return "uniform-proposal";
    case PairingKind::kCounter: return "counter-lottery";
  }
  return "?";
}

std::optional<PairingKind> pairing_from_name(std::string_view name) {
  for (const PairingKind kind :
       {PairingKind::kPermutation, PairingKind::kUniformProposal,
        PairingKind::kCounter}) {
    if (pairing_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<PairingModel> make_pairing_model(PairingKind kind) {
  switch (kind) {
    case PairingKind::kPermutation:
      return std::make_unique<PermutationPairing>();
    case PairingKind::kUniformProposal:
      return std::make_unique<UniformProposalPairing>();
    case PairingKind::kCounter:
      return std::make_unique<CounterLotteryPairing>();
  }
  HH_ASSERT(false);
  return nullptr;
}

}  // namespace hh::env
