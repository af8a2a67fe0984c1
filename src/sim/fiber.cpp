#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <new>
#include <utility>

#ifdef MULTIEDGE_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace multiedge::sim {

namespace {
std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}
}  // namespace

#ifdef MULTIEDGE_ASAN_FIBERS
namespace {
// The main context's stack, learned on the first switch into a fiber: every
// fiber yields back to it.
const void* main_stack_bottom = nullptr;
std::size_t main_stack_bytes = 0;
}  // namespace
#endif

Fiber::Fiber(Body body, std::size_t stack_bytes) : body_(std::move(body)) {
  const std::size_t page = page_bytes();
  map_bytes_ = page + (stack_bytes + page - 1) / page * page;
  // MAP_NORESERVE: a stack reserves address space, not swap; its pages are
  // committed as they are first touched.
  void* map = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  map_ = static_cast<char*>(map);
  // Stacks grow down, so the guard goes at the low end.
  if (mprotect(map_, page, PROT_NONE) != 0) {
    munmap(map_, map_bytes_);
    throw std::bad_alloc();
  }
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = map_ + page;
  ctx_.uc_stack.ss_size = map_bytes_ - page;
  ctx_.uc_link = &return_ctx_;
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

Fiber::~Fiber() {
  // A fiber must run to completion (or never start) before destruction;
  // destroying a suspended fiber would leak whatever RAII state lives on its
  // stack. All owners in this codebase join their fibers first.
  assert(done_ || !started_);
  munmap(map_, map_bytes_);
}

void Fiber::trampoline() {
  Fiber* self = current_;
#ifdef MULTIEDGE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &main_stack_bottom,
                                  &main_stack_bytes);
#endif
  self->body_();
  self->done_ = true;
#ifdef MULTIEDGE_ASAN_FIBERS
  // A null save slot tells ASan this fiber's stack is gone for good.
  __sanitizer_start_switch_fiber(nullptr, main_stack_bottom, main_stack_bytes);
#endif
  // Returning lets ucontext switch to uc_link (return_ctx_), i.e. back to
  // whoever resumed us, with current_ already reset by resume().
}

void Fiber::resume() {
  assert(current_ == nullptr && "fibers must be resumed from the main context");
  assert(!done_);
  started_ = true;
  current_ = this;
#ifdef MULTIEDGE_ASAN_FIBERS
  void* main_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&main_fake_stack, map_ + page_bytes(),
                                 map_bytes_ - page_bytes());
#endif
  swapcontext(&return_ctx_, &ctx_);
#ifdef MULTIEDGE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(main_fake_stack, nullptr, nullptr);
#endif
  current_ = nullptr;
}

void Fiber::yield() {
  Fiber* self = current_;
  assert(self != nullptr && "yield() called outside any fiber");
  current_ = nullptr;
#ifdef MULTIEDGE_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_, main_stack_bottom,
                                 main_stack_bytes);
#endif
  swapcontext(&self->ctx_, &self->return_ctx_);
#ifdef MULTIEDGE_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(self->asan_fake_stack_, &main_stack_bottom,
                                  &main_stack_bytes);
#endif
  // When resumed, resume() has set current_ back to self.
}

}  // namespace multiedge::sim
