// Heap-allocation counter for the traced run. perfbench_traced links
// alloc_hook.cc, which replaces the global operator new; perfbench links
// alloc_stub.cc, which carries no hook at all (Installed() is false).
#pragma once

#include <cstdint>

namespace perfbench::allocs {

[[nodiscard]] bool Installed();
void SetCounting(bool on);
// Allocations counted (on any thread) while counting was on.
[[nodiscard]] std::uint64_t Count();

}  // namespace perfbench::allocs
