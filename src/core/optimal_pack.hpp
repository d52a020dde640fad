// Packed (struct-of-arrays) engine for Algorithm 2 — the O(log n) optimal
// emigration protocol (paper Section 4), including the Section 4.2 settle
// termination fix.
//
// Unlike the Algorithm-3 family, Algorithm 2's rounds are never
// colony-uniform after round 1: active and passive ants run interleaved
// 4-round blocks (R1..R4) while final ants recruit every round and settled
// ants go every round, so within one round the colony mixes recruit() and
// go() calls. The pack therefore keeps PER-ANT phase lanes (state, block
// step and case, pending transitions) and plans every round >= 2 per
// ant. Each transition is coded once (see optimal_pack.cpp), and two
// passes run it. In a fault-free, fully synchronous colony, exact or
// noisy, every active and passive ant shares one block step, derived
// from the round number, and the kernel runs the listed pass: one loop
// per state list, specialised on the step. Under faults or partial
// synchrony a sleeping or crashed ant's block freezes, so the kernel
// runs the laned pass: each acting ant runs the same step code at its
// own block step.
//
// Bit-identical to the per-object OptimalAnt colony (which draws no
// per-ant randomness at all): same observation-driven transitions, same
// count comparisons, same settle streak. tests/test_ant_pack.cpp pins it
// across seeds x settle on/off x fault plans x 1/2/8 runner threads.
#ifndef HH_CORE_OPTIMAL_PACK_HPP
#define HH_CORE_OPTIMAL_PACK_HPP

#include <cstdint>
#include <memory>

#include "core/ant_pack.hpp"

namespace hh::core {

/// Build the packed Algorithm-2 colony (`settle` selects the Section 4.2
/// termination fix — the kOptimalSettle variant). Parameters as
/// make_ant_pack.
[[nodiscard]] std::unique_ptr<AntPack> make_optimal_pack(
    std::uint32_t num_ants, std::uint32_t num_nests, std::uint64_t colony_seed,
    bool settle, const env::FaultPlan* faults);

}  // namespace hh::core

#endif  // HH_CORE_OPTIMAL_PACK_HPP
