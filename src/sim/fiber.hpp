// Cooperative user-level fibers.
//
// Each simulated MPI rank runs as a fiber so rank programs can be written in
// natural blocking style (call sim::recv and "block").  Each engine runs on
// one OS thread and resumes exactly one fiber at a time, which makes its
// execution deterministic; independent engines may run on separate threads.
//
// On x86-64 the switch is a hand-rolled userspace stack swap (callee-saved
// registers + FPU control words, ~10ns); glibc's swapcontext performs a
// sigprocmask syscall per switch, which dominated the scheduler's hot path.
// Other architectures fall back to ucontext.  Define CRITTER_FIBER_UCONTEXT
// to force the portable path (e.g. when debugging under sanitizers that
// track stacks through swapcontext).
#pragma once

#include <cstddef>
#include <exception>
#include <functional>

#if defined(__x86_64__) && !defined(CRITTER_FIBER_UCONTEXT)
#define CRITTER_FIBER_FAST 1
#else
#include <ucontext.h>
#endif

namespace critter::sim {

class Fiber {
 public:
  /// `body` runs on the fiber's own 512 KB stack on first resume().  Stacks
  /// are mmap'd with a guard page; they are virtual memory, so thousands of
  /// fibers are cheap until pages are actually touched.  A destroyed
  /// fiber's stack goes back to a process-wide free list that the next
  /// fiber takes it from, so repeated engine runs map no new stacks once
  /// the list holds their peak rank count.
  explicit Fiber(std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the scheduler into the fiber; returns when the fiber
  /// yields or finishes.
  void resume();

  /// Switch from inside the fiber back to the scheduler.  Must be called
  /// on the currently running fiber.
  void yield();

  bool finished() const { return finished_; }

  /// Exception thrown by the body, if any (captured, not propagated,
  /// so the scheduler decides when to rethrow).
  std::exception_ptr error() const { return error_; }

 private:
  static void trampoline();

  std::function<void()> body_;
#if defined(CRITTER_FIBER_FAST)
  void* sp_ = nullptr;            ///< fiber's saved stack pointer
  void* scheduler_sp_ = nullptr;  ///< scheduler's saved stack pointer
#else
  ucontext_t context_{};
  ucontext_t scheduler_context_{};
#endif
  /// AddressSanitizer fake-stack handle of this fiber while it is switched
  /// out (see the __sanitizer_*_switch_fiber annotations in fiber.cc).
  void* asan_fake_stack_ = nullptr;
  /// ThreadSanitizer fiber contexts: this fiber's, and the scheduler's it
  /// switches back to (see the __tsan_*_fiber annotations in fiber.cc).
  void* tsan_fiber_ = nullptr;
  void* tsan_scheduler_fiber_ = nullptr;
  void* stack_ = nullptr;
  std::size_t stack_bytes_ = 0;
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
};

}  // namespace critter::sim
