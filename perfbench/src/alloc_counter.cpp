#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

std::atomic<bool> g_counting{false};

// One counter per thread, each on its own cache line, so threads that
// allocate concurrently (the serving engine's lanes) do not contend on a
// shared line. Threads beyond kSlots share slots; the counts stay exact
// because every update is an atomic add.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};
constexpr std::size_t kSlots = 64;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local Slot* t_slot = nullptr;

void count_one() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr)
    t_slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  t_slot->n.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_one();
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0)
    return nullptr;
  return p;
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
