#include "alloc_count.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::int64_t> g_last_ns{0};

inline void note_alloc() noexcept {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_last_ns.store(std::chrono::steady_clock::now().time_since_epoch() /
                      std::chrono::nanoseconds(1),
                  std::memory_order_relaxed);
}

void* checked_malloc(std::size_t n) {
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* checked_aligned(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}

}  // namespace

namespace perfbench {

void alloc_count_arm(bool on) {
  if (on) {
    g_count.store(0, std::memory_order_relaxed);
    g_last_ns.store(0, std::memory_order_relaxed);
  }
  g_armed.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() { return g_count.load(std::memory_order_relaxed); }

std::int64_t last_alloc_ns() {
  return g_last_ns.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// Every variant funnels through malloc/free, so sized, unsized and aligned
// deletes stay interchangeable; only allocations are counted.
void* operator new(std::size_t n) {
  note_alloc();
  return checked_malloc(n);
}
void* operator new[](std::size_t n) {
  note_alloc();
  return checked_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  note_alloc();
  return checked_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  note_alloc();
  return checked_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
