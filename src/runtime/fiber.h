// Stackful fibers for runtime::Simulation. Private to sim.cpp: with the
// switch routine in fiber_switch.cpp, this is the only place that touches
// mmap, the context switch or the sanitizer fiber API.
//
// A FiberSet runs n fibers on the thread that owns it (the host). The host
// starts or resumes fiber i with resume(i); the fiber gives control back
// with yield(i), or for good when its entry function returns. Fibers never
// switch to one another, and nothing here is thread-safe: every call is
// made on the host thread, by the host or by one of its fibers. A fiber
// may itself host another FiberSet (a simulation run inside a simulation).
//
// Each stack is kStackBytes with a PROT_NONE guard page below it, so an
// overflow faults instead of writing into its neighbour. Every thread
// keeps a cache of warm stacks: a FiberSet takes its n stacks from the
// cache, mapping only those the cache lacks, and gives them back when it
// is destroyed; the cache unmaps them when the thread exits. On x86-64 a
// switch is rrfd_runtime_fiber_switch (fiber_switch.cpp), which saves the
// callee-saved registers, MXCSR and the x87 control word and swaps stack
// pointers; elsewhere it is glibc's swapcontext. So once a thread is warm,
// neither a run nor a switch enters the kernel. Fibers share the thread's
// signal mask.
//
// Under ASan and TSan every switch is announced (__sanitizer_*_switch_fiber,
// __tsan_*_fiber); without that, the sanitizers see one thread's stack
// pointer jump between stacks they do not know, and report false errors
// or crash.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#if defined(__x86_64__)
/// Saves the caller's registers on its stack and its stack pointer in
/// *save_sp, then resumes the stack whose saved stack pointer is load_sp.
extern "C" void rrfd_runtime_fiber_switch(void** save_sp, void* load_sp);
#else
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace rrfd::runtime::detail {

class FiberSet {
 public:
  /// Runs on fiber `id` from its first resume; the fiber finishes when it
  /// returns. Must not throw: no exception may cross a fiber boundary.
  using Entry = void (*)(void* arg, int id) noexcept;

  /// Usable stack of every fiber (its guard page comes on top of this).
  static constexpr std::size_t kStackBytes = std::size_t{256} * 1024;

  /// Throws std::bad_alloc if the stacks the cache lacks cannot be mapped.
  FiberSet(int n, Entry entry, void* arg)
      : entry_(entry), arg_(arg), fibers_(static_cast<std::size_t>(n)) {
    StackCache& cache = StackCache::mine();
    try {
      for (Fiber& f : fibers_) f.stack = cache.take();
    } catch (...) {
      give_back();
      throw;
    }
#if defined(__SANITIZE_THREAD__)
    host_tsan_ = __tsan_get_current_fiber();
#endif
  }

  ~FiberSet() {
#if defined(__SANITIZE_THREAD__)
    for (Fiber& f : fibers_) {
      if (f.tsan != nullptr) __tsan_destroy_fiber(f.tsan);
    }
#endif
    give_back();
  }

  FiberSet(const FiberSet&) = delete;
  FiberSet& operator=(const FiberSet&) = delete;

  bool started(int id) const { return at(id).started; }
  bool finished(int id) const { return at(id).finished; }

  /// Host only: runs fiber `id` (starting it on first use) until it yields
  /// or finishes. `id` must not have finished.
  void resume(int id) {
    Fiber& f = at(id);
    if (!f.started) start(id);
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, f.stack, kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(f.tsan, 0);
#endif
    jump(host_, f.context);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  }

  /// Fiber `id` only: hands control back to the host until resumed.
  void yield(int id) {
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, host_bottom_, host_size_);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(host_tsan_, 0);
#endif
    jump(at(id).context, host_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &host_bottom_, &host_size_);
#endif
  }

 private:
#if defined(__x86_64__)
  /// A suspended stack, found by where its switch left its saved registers.
  struct Context {
    void* sp = nullptr;
  };

  static void jump(Context& from, const Context& to) {
    rrfd_runtime_fiber_switch(&from.sp, to.sp);
  }

  /// Builds on a fresh stack the frame the switch pops, in pop order: the
  /// host's MXCSR and x87 control word, zeroed r15-r12, rbx and rbp, and a
  /// return into trampoline() that leaves the stack aligned as a call
  /// would. Above it sits trampoline()'s own return address, null, since
  /// it never returns.
  static void prepare(Context& context, char* stack) {
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_control = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_control));
    const std::uint64_t frame[] = {
        mxcsr | std::uint64_t{x87_control} << 32,
        0, 0, 0, 0, 0, 0,
        reinterpret_cast<std::uintptr_t>(&trampoline),
        0};
    char* sp = stack + kStackBytes - sizeof frame;
    std::memcpy(sp, frame, sizeof frame);
    context.sp = sp;
  }
#else
  struct Context {
    ucontext_t uc{};
  };

  static void jump(Context& from, const Context& to) {
    swapcontext(&from.uc, &to.uc);
  }

  static void prepare(Context& context, char* stack) {
    getcontext(&context.uc);
    context.uc.uc_stack.ss_sp = stack;
    context.uc.uc_stack.ss_size = kStackBytes;
    context.uc.uc_link = nullptr;  // the trampoline never returns
    makecontext(&context.uc, &trampoline, 0);
  }
#endif

  /// The calling thread's idle stacks. Each stack is its own mapping, a
  /// guard page and then kStackBytes; stacks are passed around by the
  /// address just above the guard.
  class StackCache {
   public:
    static StackCache& mine() {
      static thread_local StackCache cache;
      return cache;
    }

    StackCache() = default;
    StackCache(const StackCache&) = delete;
    StackCache& operator=(const StackCache&) = delete;

    ~StackCache() {
      for (char* stack : idle_) munmap(stack - guard_, guard_ + kStackBytes);
    }

    /// A warm stack if there is one, else a newly mapped one.
    char* take() {
      if (idle_.empty()) return map();
      char* stack = idle_.back();
      idle_.pop_back();
      return stack;
    }

    /// Takes back a stack from take(). Never allocates: idle_ has room for
    /// every stack this cache has mapped.
    void give(char* stack) noexcept {
#if defined(__SANITIZE_ADDRESS__)
      // A fiber abandoned mid-body leaves its frames' redzones poisoned;
      // whoever takes this stack next must not inherit them.
      ASAN_UNPOISON_MEMORY_REGION(stack, kStackBytes);
#endif
      idle_.push_back(stack);
    }

   private:
    char* map() {
      idle_.reserve(mapped_ + 1);
      void* base = mmap(nullptr, guard_ + kStackBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
      if (base == MAP_FAILED) throw std::bad_alloc();
      if (mprotect(base, guard_, PROT_NONE) != 0) {
        munmap(base, guard_ + kStackBytes);
        throw std::bad_alloc();
      }
      ++mapped_;
      return static_cast<char*>(base) + guard_;
    }

    std::size_t guard_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    std::size_t mapped_ = 0;  // stacks mapped so far, idle or taken
    std::vector<char*> idle_;
  };

  struct Fiber {
    char* stack = nullptr;  // lowest usable address, from the cache
    Context context{};      // set up by start()
    bool started = false;
    bool finished = false;
    void* tsan = nullptr;  // TSan's handle for this fiber (TSan builds)
  };

  Fiber& at(int id) { return fibers_[static_cast<std::size_t>(id)]; }
  const Fiber& at(int id) const {
    return fibers_[static_cast<std::size_t>(id)];
  }

  void give_back() noexcept {
    StackCache& cache = StackCache::mine();
    for (Fiber& f : fibers_) {
      if (f.stack != nullptr) cache.give(f.stack);
    }
  }

  void start(int id) {
    Fiber& f = at(id);
    f.started = true;
    prepare(f.context, f.stack);
#if defined(__SANITIZE_THREAD__)
    f.tsan = __tsan_create_fiber(0);
#endif
    // The trampoline takes no arguments; the new fiber finds them here.
    starting_set_ = this;
    starting_id_ = id;
  }

  static void trampoline() noexcept {
    FiberSet* set = starting_set_;
    const int id = starting_id_;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &set->host_bottom_,
                                    &set->host_size_);
#endif
    set->entry_(set->arg_, id);
    Fiber& f = set->at(id);
    f.finished = true;
    // Leave for good by one last switch; there is nothing to return to.
    // This stack is never resumed, so its fake stack is released
    // (nullptr), and TSan is switched back right before the switch, so no
    // more of this fiber's instrumented code runs as the host.
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(nullptr, set->host_bottom_,
                                   set->host_size_);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(set->host_tsan_, 0);
#endif
    jump(f.context, set->host_);
    std::abort();  // a finished fiber is never resumed
  }

  static inline thread_local FiberSet* starting_set_ = nullptr;
  static inline thread_local int starting_id_ = 0;

  Entry entry_;
  void* arg_;
  std::vector<Fiber> fibers_;
  Context host_{};  // saved by every resume()
#if defined(__SANITIZE_ADDRESS__)
  // The host's stack as ASan reports it on each switch into a fiber.
  const void* host_bottom_ = nullptr;
  std::size_t host_size_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* host_tsan_ = nullptr;
#endif
};

}  // namespace rrfd::runtime::detail
