// Stackful fibers for runtime::Simulation. Private to sim.cpp: with the
// switch routine in fiber_switch.cpp, this is the only place that touches
// mmap, the context switch, the floating-point control state or the
// sanitizer fiber API.
//
// A FiberSet runs n fibers on the thread that owns it (the host). Every
// switch is transfer(from, to), made by whoever runs now: the host starts
// or resumes fiber i with transfer(kHost, i), fiber i hands control to
// fiber j with transfer(i, j) (starting j on first use) or back to the host
// with transfer(i, kHost), and a fiber whose entry function returns leaves
// for good by one last switch to the host. Nothing here is thread-safe:
// every call is made on the host thread, by the host or by one of its
// fibers. A fiber may itself host another FiberSet (a simulation run inside
// a simulation).
//
// Each stack is kStackBytes with a PROT_NONE guard page below it, so an
// overflow faults instead of writing into its neighbour. Every thread
// keeps a cache of warm stacks: a FiberSet takes its n stacks from the
// cache, mapping only those the cache lacks, and gives them back when it
// is destroyed; the cache unmaps them when the thread exits. On x86-64 a
// switch is rrfd_runtime_fiber_switch (fiber_switch.cpp), which saves the
// callee-saved registers, MXCSR and the x87 control word and swaps stack
// pointers; elsewhere it is glibc's swapcontext. So once a thread is warm,
// neither a run nor a switch enters the kernel. Every fiber starts with the
// floating-point control state the host had when the set was made, and
// with_host_fp() lets a fiber run host code (a scheduler's pick) under it.
// Fibers share the thread's signal mask.
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

#include <cfenv>
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
  /// Runs on fiber `id` from the first switch to it; the fiber finishes
  /// when it returns. Must not throw: no exception may cross a fiber
  /// boundary.
  using Entry = void (*)(void* arg, int id) noexcept;

  /// Usable stack of every fiber (its guard page comes on top of this).
  static constexpr std::size_t kStackBytes = std::size_t{256} * 1024;

  /// Stands for the host in transfer().
  static constexpr int kHost = -1;

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

  /// Switches from `from`, which must be what runs now, to `to`, starting
  /// `to` on first use; either may be kHost, not both. Returns when
  /// something switches back to `from`. `to` must not have finished.
  void transfer(int from, int to) {
    if (to != kHost && !at(to).started) start(to);
#if defined(__SANITIZE_ADDRESS__)
    void* fake_stack = nullptr;
    if (to == kHost) {
      __sanitizer_start_switch_fiber(&fake_stack, host_bottom_, host_size_);
    } else {
      __sanitizer_start_switch_fiber(&fake_stack, at(to).stack, kStackBytes);
    }
    from_ = from;
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to == kHost ? host_tsan_ : at(to).tsan, 0);
#endif
    jump(from == kHost ? host_ : at(from).context,
         to == kHost ? host_ : at(to).context);
#if defined(__SANITIZE_ADDRESS__)
    landed(fake_stack);
#endif
  }

  /// Calls f() under the host's floating-point control state as it was
  /// when this set was made, and returns what f() returns; the caller's
  /// state is back when f() returns or throws. The host's state is loaded
  /// only if the caller's differs from it.
  template <class F>
  auto with_host_fp(F&& f) {
    const FpState mine = FpState::current();
    if (mine.matches(host_fp_)) return f();
    host_fp_.load();
    struct Restore {
      const FpState& state;
      ~Restore() { state.load(); }
    } restore{mine};
    return f();
  }

 private:
#if defined(__x86_64__)
  /// A suspended stack, found by where its switch left its saved registers.
  struct Context {
    void* sp = nullptr;
  };

  /// The floating-point control state a switch carries.
  struct FpState {
    std::uint32_t mxcsr = 0;
    std::uint16_t x87_control = 0;

    static FpState current() {
      FpState s;
      asm volatile("stmxcsr %0\n\tfnstcw %1"
                   : "=m"(s.mxcsr), "=m"(s.x87_control)
                   :
                   : "memory");
      return s;
    }
    void load() const {
      asm volatile("ldmxcsr %0\n\tfldcw %1"
                   :
                   : "m"(mxcsr), "m"(x87_control)
                   : "memory");
    }
    bool matches(const FpState& o) const {
      return mxcsr == o.mxcsr && x87_control == o.x87_control;
    }
  };

  static void jump(Context& from, const Context& to) {
    rrfd_runtime_fiber_switch(&from.sp, to.sp);
  }

  /// Builds on a fresh stack the frame the switch pops, in pop order:
  /// `fp`'s MXCSR and x87 control word, zeroed r15-r12, rbx and rbp, and a
  /// return into trampoline() that leaves the stack aligned as a call
  /// would. Above it sits trampoline()'s own return address, null, since
  /// it never returns.
  static void prepare(Context& context, char* stack, const FpState& fp) {
    const std::uint64_t frame[] = {
        fp.mxcsr | std::uint64_t{fp.x87_control} << 32,
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

  /// The whole floating-point environment, which swapcontext carries.
  struct FpState {
    std::fenv_t env{};

    static FpState current() {
      FpState s;
      std::fegetenv(&s.env);
      return s;
    }
    void load() const { std::fesetenv(&env); }
    // fenv_t has no portable comparison, so the host's is always loaded.
    bool matches(const FpState&) const { return false; }
  };

  static void jump(Context& from, const Context& to) {
    swapcontext(&from.uc, &to.uc);
  }

  /// getcontext records the caller's floating-point environment as the
  /// new fiber's, so `fp` is loaded around it.
  static void prepare(Context& context, char* stack, const FpState& fp) {
    const FpState mine = FpState::current();
    fp.load();
    getcontext(&context.uc);
    mine.load();
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
    prepare(f.context, f.stack, host_fp_);
#if defined(__SANITIZE_THREAD__)
    f.tsan = __tsan_create_fiber(0);
#endif
    // The trampoline takes no arguments; the new fiber finds them here.
    starting_set_ = this;
    starting_id_ = id;
  }

#if defined(__SANITIZE_ADDRESS__)
  /// Completes ASan's view of a switch on the stack it landed on. The
  /// switch reports the stack it left; only one from the host tells the
  /// host's bounds, which every later switch to the host needs.
  void landed(void* fake_stack) {
    const void* bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
    if (from_ == kHost) {
      host_bottom_ = bottom;
      host_size_ = size;
    }
  }
#endif

  static void trampoline() noexcept {
    FiberSet* set = starting_set_;
    const int id = starting_id_;
#if defined(__SANITIZE_ADDRESS__)
    set->landed(nullptr);
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
    set->from_ = id;
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
  Context host_{};  // saved by every switch from the host
  FpState host_fp_ = FpState::current();  // the host's, when the set was made
#if defined(__SANITIZE_ADDRESS__)
  // The host's stack as ASan reports it on each switch from the host.
  const void* host_bottom_ = nullptr;
  std::size_t host_size_ = 0;
  int from_ = kHost;  // who made the latest switch
#endif
#if defined(__SANITIZE_THREAD__)
  void* host_tsan_ = nullptr;
#endif
};

}  // namespace rrfd::runtime::detail
