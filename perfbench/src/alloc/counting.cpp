// Linked into perfbench-traced only: replaces global operator new/delete
// with the repository's counting wrappers (tests/counting_alloc.hpp).
#include "counting_alloc.hpp"
#include "probes.hpp"

namespace perfbench {

const bool kCountsAllocations = true;

std::uint64_t allocations() { return hh::testing::allocation_count(); }

}  // namespace perfbench
