// Counting global allocator for allocation-accounting tests.
//
// Include from exactly one source file of a test binary: it defines the
// replaceable global operator new/delete family, so every path into the
// heap ticks g_news. Deltas across a code region measure its allocation
// count exactly (single-threaded tests; gtest's own bookkeeping between
// regions does not interfere).
#ifndef LECOPT_TESTS_COUNTING_NEW_H_
#define LECOPT_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_news{0};

void* CountedAlloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  ++g_news;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
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

#endif  // LECOPT_TESTS_COUNTING_NEW_H_
