// The untraced binary's allocation counters: the default allocator is
// left in place, so end-to-end numbers pay nothing for counting.
#include "harness.h"

namespace perfbench {

AllocCounts CurrentAllocs() { return {}; }

}  // namespace perfbench
