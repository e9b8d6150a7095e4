#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "util/check.hpp"

// AddressSanitizer tracks one shadow stack per thread; switching stacks
// underneath it without notice produces false positives (and breaks
// use-after-return detection).  The __sanitizer_*_switch_fiber protocol
// hands the stack bounds over at every switch, which keeps the ASan+UBSan
// CI job honest on the fiber-based engine.  All annotations compile away in
// non-sanitized builds.
#if defined(__SANITIZE_ADDRESS__)
#define CRITTER_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CRITTER_ASAN_FIBERS 1
#endif
#endif

#if defined(CRITTER_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer keeps one shadow call stack and one clock per thread; a
// stack switch it is not told about unbalances the call stack (it grows
// without bound, by gigabytes over a test suite) and blurs which code ran
// where.  Giving every fiber its own TSan fiber context, switched just
// before each stack swap, keeps the TSan CI job usable on the engine.
#if defined(__SANITIZE_THREAD__)
#define CRITTER_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CRITTER_TSAN_FIBERS 1
#endif
#endif

#if defined(CRITTER_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace critter::sim {

namespace {
// makecontext() passes only int arguments portably; hand the Fiber* over in
// a thread-local slot instead.  Safe because a fiber never migrates between
// OS threads and the slot is consumed synchronously inside resume(); the
// thread_local keeps concurrent engines (one per tuner worker) independent.
thread_local Fiber* g_trampoline_arg = nullptr;

#if defined(CRITTER_ASAN_FIBERS)
// Scheduler-side fake-stack handle plus the scheduler stack bounds a fiber
// must announce when switching back (captured from the finish call that
// runs on fiber entry).  One engine runs per OS thread, so thread_local
// slots suffice.
thread_local void* g_sched_fake_stack = nullptr;
thread_local const void* g_sched_stack_bottom = nullptr;
thread_local std::size_t g_sched_stack_size = 0;
#endif
}  // namespace

#if defined(CRITTER_FIBER_FAST)

// Hand-rolled System V AMD64 context switch.  glibc's swapcontext saves and
// restores the signal mask with a sigprocmask syscall on every switch
// (~200ns each); the engine switches fibers millions of times per simulated
// run and never touches signal state from a fiber, so we save exactly what
// the psABI requires across a call — callee-saved GPRs plus the x87/SSE
// control words — and swap stack pointers in userspace (~10ns).
asm(R"(
.text
.globl critter_fiber_swap
.hidden critter_fiber_swap
.type critter_fiber_swap, @function
.align 16
critter_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr 4(%rsp)
    fnstcw  (%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 4(%rsp)
    addq  $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
.size critter_fiber_swap, .-critter_fiber_swap
)");

extern "C" void critter_fiber_swap(void** save_sp, void* restore_sp);

#endif  // CRITTER_FIBER_FAST

namespace {

// Usable bytes of every fiber stack; the guard page comes on top.
constexpr std::size_t kStackBytes = 512 * 1024;

// Released fiber stacks, reused most-recently-released first.  Every
// engine run needs one stack per rank; mapping, guarding and unmapping
// them per run cost more system time than the simulation itself on
// parallel sweeps.  The list is process-wide because sweep thread pools
// live for one study only, and it needs no cap: every pooled stack was
// once live, so it never holds more than the peak number of fibers alive
// at once.  Its pages stay mapped, so the stack pages those fibers touched
// stay resident for the life of the process (DESIGN §11).  Its mutex is
// also the happens-before edge ThreadSanitizer needs when a stack released
// on one thread is reused on another.  Leaked on purpose so fibers
// destroyed during static destruction still find it.
struct StackPool {
  std::mutex m;
  std::vector<void*> free;
};

StackPool& stack_pool() {
  static StackPool* pool = new StackPool;
  return *pool;
}

void* acquire_stack(std::size_t bytes, long page) {
  StackPool& pool = stack_pool();
  {
    std::lock_guard<std::mutex> lk(pool.m);
    if (!pool.free.empty()) {
      void* stack = pool.free.back();
      pool.free.pop_back();
      return stack;
    }
  }
  void* stack = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CRITTER_CHECK(stack != MAP_FAILED, "fiber stack mmap failed");
  // Guard page at the low end (stacks grow down) turns overflow into SIGSEGV
  // instead of silent corruption.  It stays protected while pooled.
  CRITTER_CHECK(mprotect(stack, page, PROT_NONE) == 0, "guard page mprotect");
  return stack;
}

void release_stack(void* stack, [[maybe_unused]] std::size_t bytes) {
#if defined(CRITTER_ASAN_FIBERS)
  // Frames poisoned on this stack (including those of a fiber that never
  // finished) would otherwise trip ASan when the next fiber reuses it.
  __asan_unpoison_memory_region(stack, bytes);
#endif
  StackPool& pool = stack_pool();
  std::lock_guard<std::mutex> lk(pool.m);
  pool.free.push_back(stack);
}

}  // namespace

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {
  const long page = sysconf(_SC_PAGESIZE);
  stack_bytes_ = ((kStackBytes + page - 1) / page) * page + page;  // + guard
  stack_ = acquire_stack(stack_bytes_, page);
#if defined(CRITTER_TSAN_FIBERS)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(CRITTER_TSAN_FIBERS)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (stack_ != nullptr) release_stack(stack_, stack_bytes_);
}

void Fiber::trampoline() {
  Fiber* self = g_trampoline_arg;
  g_trampoline_arg = nullptr;
#if defined(CRITTER_ASAN_FIBERS)
  // First time on this stack: no fake stack to restore; remember the
  // scheduler stack we came from for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
  try {
    self->body_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->finished_ = true;
  // Return to the scheduler; the context is never resumed again.
  self->yield();
  __builtin_unreachable();
}

#if defined(CRITTER_FIBER_FAST)

void Fiber::resume() {
  CRITTER_CHECK(!finished_, "resuming a finished fiber");
  if (!started_) {
    started_ = true;
    // Craft an initial stack frame such that the first swap "returns" into
    // trampoline().  The layout must mirror critter_fiber_swap exactly:
    // [6 callee-saved slots][8-byte fpu word][return address], with the
    // return-address slot placed so %rsp ≡ 8 (mod 16) at trampoline entry,
    // as the psABI requires at a function's first instruction.
    auto top = reinterpret_cast<std::uintptr_t>(
                   static_cast<char*>(stack_) + stack_bytes_) &
               ~static_cast<std::uintptr_t>(15);
    auto* frame = reinterpret_cast<std::uintptr_t*>(top - 16) - 7;
    std::uint16_t fcw = 0;
    std::uint32_t mxcsr = 0;
    asm volatile("fnstcw %0; stmxcsr %1" : "=m"(fcw), "=m"(mxcsr));
    unsigned char fpu[sizeof(std::uintptr_t)] = {};
    std::memcpy(fpu, &fcw, sizeof fcw);          // fcw @0
    std::memcpy(fpu + 4, &mxcsr, sizeof mxcsr);  // mxcsr @4
    std::memcpy(&frame[0], fpu, sizeof fpu);
    for (int i = 1; i < 7; ++i) frame[i] = 0;  // r15, r14, r13, r12, rbx, rbp
    frame[7] = reinterpret_cast<std::uintptr_t>(&Fiber::trampoline);
    sp_ = frame;
    g_trampoline_arg = this;
  }
#if defined(CRITTER_ASAN_FIBERS)
  const long page = sysconf(_SC_PAGESIZE);
  __sanitizer_start_switch_fiber(&g_sched_fake_stack,
                                 static_cast<char*>(stack_) + page,
                                 stack_bytes_ - page);
#endif
#if defined(CRITTER_TSAN_FIBERS)
  tsan_scheduler_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  critter_fiber_swap(&scheduler_sp_, sp_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(g_sched_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#if defined(CRITTER_ASAN_FIBERS)
  // A finished fiber never comes back: a null save slot tells ASan to
  // destroy its fake stack instead of parking it.
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &asan_fake_stack_,
                                 g_sched_stack_bottom, g_sched_stack_size);
#endif
#if defined(CRITTER_TSAN_FIBERS)
  __tsan_switch_to_fiber(tsan_scheduler_fiber_, 0);
#endif
  critter_fiber_swap(&sp_, scheduler_sp_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
}

#else  // ucontext fallback for non-x86-64 targets

void Fiber::resume() {
  CRITTER_CHECK(!finished_, "resuming a finished fiber");
  if (!started_) {
    started_ = true;
    CRITTER_CHECK(getcontext(&context_) == 0, "getcontext");
    const long page = sysconf(_SC_PAGESIZE);
    context_.uc_stack.ss_sp = static_cast<char*>(stack_) + page;
    context_.uc_stack.ss_size = stack_bytes_ - page;
    context_.uc_link = nullptr;
    g_trampoline_arg = this;
    makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
  }
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&g_sched_fake_stack,
                                 context_.uc_stack.ss_sp,
                                 context_.uc_stack.ss_size);
#endif
#if defined(CRITTER_TSAN_FIBERS)
  tsan_scheduler_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&scheduler_context_, &context_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(g_sched_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::yield() {
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &asan_fake_stack_,
                                 g_sched_stack_bottom, g_sched_stack_size);
#endif
#if defined(CRITTER_TSAN_FIBERS)
  __tsan_switch_to_fiber(tsan_scheduler_fiber_, 0);
#endif
  swapcontext(&context_, &scheduler_context_);
#if defined(CRITTER_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
}

#endif

}  // namespace critter::sim
