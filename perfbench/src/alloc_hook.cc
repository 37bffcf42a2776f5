// Counting replacement of the global operator new, linked only into
// perfbench_traced. Storage still comes from malloc, so the default
// operator delete (free) stays correct.
#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> count{0};

void* CountedAlloc(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

namespace perfbench::allocs {

bool Installed() { return true; }
void SetCounting(bool on) { counting.store(on, std::memory_order_relaxed); }
std::uint64_t Count() { return count.load(std::memory_order_relaxed); }

}  // namespace perfbench::allocs

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
