// Linked into the untraced perfbench binary: the normal allocator, so the
// end-to-end figures carry no allocation counting.
#include "probes.hpp"

namespace perfbench {

const bool kCountsAllocations = false;

std::uint64_t allocations() { return 0; }

}  // namespace perfbench
