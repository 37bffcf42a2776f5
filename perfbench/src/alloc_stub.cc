// The untraced benchmark binary: no operator-new replacement.
#include "alloc_count.h"

namespace perfbench::allocs {

bool Installed() { return false; }
void SetCounting(bool) {}
std::uint64_t Count() { return 0; }

}  // namespace perfbench::allocs
