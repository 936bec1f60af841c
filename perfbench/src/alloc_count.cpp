// Benchmark-side replacement of the global allocation functions: while
// armed, every operator new in the process is counted. The in-process tiers
// of the traced run divide the count by frames or requests. libstdc++ routes
// the array, nothrow and sized variants through these two, so replacing the
// plain and aligned forms (and their deletes) covers every allocation.

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_count{0};

void note() {
  if (g_armed.load(std::memory_order_relaxed)) g_count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace perfbench::allocs {

void arm() {
  g_count.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
}

std::uint64_t disarm() {
  g_armed.store(false, std::memory_order_relaxed);
  return g_count.load(std::memory_order_relaxed);
}

}  // namespace perfbench::allocs

void* operator new(std::size_t size) {
  note();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  note();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
