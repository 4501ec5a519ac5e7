// Stackful fibers for runtime::Simulation. Private to sim.cpp: this is the
// only place that touches <ucontext.h>, mmap or the sanitizer fiber API.
//
// A FiberSet runs n fibers on the thread that owns it (the host). The host
// starts or resumes fiber i with resume(i); the fiber gives control back
// with yield(i), or for good when its entry function returns. Fibers never
// switch to one another, and nothing here is thread-safe: every call is
// made on the host thread, by the host or by one of its fibers. A fiber
// may itself host another FiberSet (a simulation run inside a simulation).
//
// Switches are glibc getcontext/makecontext/swapcontext. All n stacks live
// in one mmap; each is kStackBytes with a PROT_NONE guard page below it,
// so an overflow faults instead of writing into its neighbour. Under ASan
// and TSan every switch is announced (__sanitizer_*_switch_fiber,
// __tsan_*_fiber); without that, the sanitizers see one thread's stack
// pointer jump between stacks they do not know, and report false errors
// or crash.
#pragma once

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

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

  FiberSet(int n, Entry entry, void* arg)
      : entry_(entry), arg_(arg), fibers_(static_cast<std::size_t>(n)) {
    guard_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    bytes_ = (guard_ + kStackBytes) * fibers_.size();
    void* base = mmap(nullptr, bytes_, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(base);
    for (int i = 0; i < n; ++i) {
      if (mprotect(stack(i), kStackBytes, PROT_READ | PROT_WRITE) != 0) {
        munmap(base_, bytes_);
        throw std::bad_alloc();
      }
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
#if defined(__SANITIZE_ADDRESS__)
    // A fiber abandoned mid-body leaves its frames' redzones poisoned;
    // whatever maps these pages next must not inherit them.
    ASAN_UNPOISON_MEMORY_REGION(base_, bytes_);
#endif
    munmap(base_, bytes_);
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
    __sanitizer_start_switch_fiber(&fake_stack, stack(id), kStackBytes);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(f.tsan, 0);
#endif
    swapcontext(&host_, &f.context);
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
    swapcontext(&at(id).context, &host_);
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &host_bottom_, &host_size_);
#endif
  }

 private:
  struct Fiber {
    ucontext_t context{};  // filled by getcontext on first resume
    bool started = false;
    bool finished = false;
    void* tsan = nullptr;  // TSan's handle for this fiber (TSan builds)
  };

  Fiber& at(int id) { return fibers_[static_cast<std::size_t>(id)]; }
  const Fiber& at(int id) const {
    return fibers_[static_cast<std::size_t>(id)];
  }

  /// Lowest address of fiber `id`'s stack, just above its guard page.
  char* stack(int id) const {
    return base_ + static_cast<std::size_t>(id) * (guard_ + kStackBytes) +
           guard_;
  }

  void start(int id) {
    Fiber& f = at(id);
    f.started = true;
    getcontext(&f.context);
    f.context.uc_stack.ss_sp = stack(id);
    f.context.uc_stack.ss_size = kStackBytes;
    f.context.uc_link = nullptr;  // the trampoline leaves by setcontext
    makecontext(&f.context, reinterpret_cast<void (*)()>(&trampoline), 1, id);
#if defined(__SANITIZE_THREAD__)
    f.tsan = __tsan_create_fiber(0);
#endif
    // makecontext passes only ints, so the new fiber finds its set here.
    starting_ = this;
  }

  static void trampoline(int id) {
    FiberSet* set = starting_;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &set->host_bottom_,
                                    &set->host_size_);
#endif
    set->entry_(set->arg_, id);
    set->at(id).finished = true;
    // Leave for good. This stack is never resumed, so its fake stack is
    // released (nullptr), and TSan is switched back right before
    // setcontext: returning through uc_link would run this function's
    // instrumented epilogue on the host's shadow stack.
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(nullptr, set->host_bottom_,
                                   set->host_size_);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(set->host_tsan_, 0);
#endif
    setcontext(&set->host_);
    std::abort();  // setcontext returns only on failure
  }

  static inline thread_local FiberSet* starting_ = nullptr;

  Entry entry_;
  void* arg_;
  std::vector<Fiber> fibers_;
  std::size_t guard_ = 0;  // one page
  std::size_t bytes_ = 0;
  char* base_ = nullptr;
  ucontext_t host_{};  // saved by every resume()
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
