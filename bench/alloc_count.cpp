// Counting replacements for the global operator new/delete (see
// alloc_count.hpp). Every form is replaced, nothrow and aligned ones
// included: a sanitizer runtime supplies its own versions of any form left
// out, and would then see blocks from one allocator freed by the other.
// All forms funnel into malloc/aligned_alloc and free, so a pointer from
// any new can go to any delete, as with the defaults.
#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

/// nullptr on failure; `align` 0 means the default alignment.
void* counted_alloc(std::size_t n, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  return align <= alignof(std::max_align_t)
             ? std::malloc(n)
             : std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_new(std::size_t n, std::size_t align) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}

std::size_t to_size(std::align_val_t a) { return static_cast<std::size_t>(a); }

}  // namespace

std::uint64_t multiedge::bench::alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) { return counted_new(n, 0); }
void* operator new[](std::size_t n) { return counted_new(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, to_size(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, to_size(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, to_size(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, to_size(a));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
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
