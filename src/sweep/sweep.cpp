#include "sweep/sweep.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "trace/trace.h"
#include "util/mutex.h"

namespace rrfd::sweep {

int threads_from_env() {
  const char* env = std::getenv("RRFD_SWEEP_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  // Hand-rolled digits-only parse instead of strtol: strtol silently
  // accepts leading whitespace and a '+' sign (" 8", "+8"), which the
  // strict-knob contract forbids, and its overflow behaviour (LONG_MAX +
  // errno) is easy to mishandle. Here every deviation -- sign,
  // whitespace, hex, embedded garbage, or a value that would overflow
  // any integer width -- is the same clean ContractViolation.
  const std::string raw(env);
  long v = 0;
  bool ok = true;
  for (char c : raw) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    v = v * 10 + (c - '0');
    if (v > 4096) {  // caps the accumulator: no overflow for any input
      ok = false;
      break;
    }
  }
  RRFD_REQUIRE_MSG(ok,
                   "RRFD_SWEEP_THREADS must be an unsigned integer in "
                   "[0, 4096] (digits only: no sign, whitespace, or base "
                   "prefix), got '" +
                       raw + "'");
  return static_cast<int>(v);
}

namespace detail {

namespace {

/// One run_indexed call: its jobs, their claim counter, and the failure
/// with the lowest job index.
struct Batch {
  Batch(int jobs, const std::function<void(int)>& fn)
      : n_jobs(jobs), job(fn) {}

  /// Claims and runs jobs until the counter passes the last one.
  void drain() {
    for (;;) {
      // rrfd-lint: allow(atomic-justified) -- claim counter; Pool::mu_ publishes
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_jobs) return;
      try {
        job(i);
      } catch (...) {
        // Keep running every job: jobs are claimed in index order, so
        // by the time any job fails, all lower-indexed jobs have been
        // claimed and will record their own (lower) failures -- the
        // rethrown exception is deterministically the lowest-index one,
        // matching what the serial loop surfaces first.
        MutexLock lock(mu);
        if (i < first_error_job) {
          first_error_job = i;
          first_error = std::current_exception();
        }
      }
    }
  }

  const int n_jobs;
  const std::function<void(int)>& job;
  std::atomic<int> next{0};
  Mutex mu;
  int first_error_job RRFD_GUARDED_BY(mu) = std::numeric_limits<int>::max();
  std::exception_ptr first_error RRFD_GUARDED_BY(mu);
};

/// The process-wide helper threads behind run_indexed. A caller posts
/// requests for help with its batch, drains the batch itself, then
/// withdraws the requests no helper claimed and waits for the helpers
/// that did to leave. A helper is started only when a request finds no
/// idle one, so the pool never holds more threads than callers asked
/// for at once. Helpers live until process exit, when the pool joins
/// them.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    std::vector<std::thread> helpers;
    {
      MutexLock lock(mu_);
      stopping_ = true;
      helpers.swap(helpers_);
    }
    work_.notify_all();
    for (std::thread& t : helpers) t.join();
  }

  /// Runs every job of `batch`, with up to `helpers` pool threads
  /// beside the calling thread.
  void run(Batch& batch, int helpers) {
    post(batch, helpers);
    // The caller always drains: a call made from inside a job, or while
    // every helper is busy, still completes.
    batch.drain();
    MutexLock lock(mu_);
    seats_[seat_of(batch)].wanted = 0;
    while (seats_[seat_of(batch)].active > 0) left_.wait(mu_);
    seats_.erase(seats_.begin() +
                 static_cast<std::ptrdiff_t>(seat_of(batch)));
  }

 private:
  /// A posted batch: requests not yet claimed, helpers draining it.
  struct Seat {
    Batch* batch;
    int wanted;
    int active;
  };

  void post(Batch& batch, int helpers) {
    {
      MutexLock lock(mu_);
      seats_.push_back({&batch, helpers, 0});
      int unclaimed = 0;
      for (const Seat& seat : seats_) unclaimed += seat.wanted;
      while (idle_ < unclaimed) {
        try {
          helpers_.emplace_back([this] { serve(); });
        } catch (...) {
          // No thread to be had (resource exhaustion): the requests it
          // would have served stay unclaimed, and the caller drains them.
          break;
        }
        ++idle_;
      }
    }
    for (int h = 0; h < helpers; ++h) work_.notify_one();
  }

  /// A helper's life: claim a request, drain its batch, leave, repeat.
  void serve() {
    while (Batch* batch = claim()) {
      batch->drain();
      leave(*batch);
    }
  }

  /// Blocks until some batch wants help; nullptr once the pool stops.
  Batch* claim() {
    MutexLock lock(mu_);
    for (;;) {
      if (stopping_) return nullptr;
      for (Seat& seat : seats_) {
        if (seat.wanted == 0) continue;
        --seat.wanted;
        ++seat.active;
        --idle_;
        return seat.batch;
      }
      work_.wait(mu_);
    }
  }

  void leave(const Batch& batch) {
    MutexLock lock(mu_);
    ++idle_;
    if (--seats_[seat_of(batch)].active == 0) left_.notify_all();
  }

  /// Index of the batch's seat. Seats move as others are erased, so
  /// callers look it up again after every wait.
  std::size_t seat_of(const Batch& batch) const RRFD_REQUIRES(mu_) {
    for (std::size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s].batch == &batch) return s;
    }
    RRFD_ENSURE_MSG(false, "sweep pool: a running batch has no seat");
    return 0;
  }

  Mutex mu_;
  CondVar work_;  ///< idle helpers wait here for a request
  CondVar left_;  ///< callers wait here for their helpers to leave
  std::vector<Seat> seats_ RRFD_GUARDED_BY(mu_);
  int idle_ RRFD_GUARDED_BY(mu_) = 0;  ///< helpers not draining a batch
  bool stopping_ RRFD_GUARDED_BY(mu_) = false;
  std::vector<std::thread> helpers_ RRFD_GUARDED_BY(mu_);
};

Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace

void run_indexed(int n_jobs, int threads,
                 const std::function<void(int)>& job) {
  RRFD_REQUIRE(n_jobs >= 0);
  if (n_jobs == 0) return;
  if (threads > n_jobs) threads = n_jobs;
  // Tracing forces serial (contract item 4): the Tracer is one
  // process-wide sink; concurrent workers would interleave its event
  // stream nondeterministically.
  if (trace::Tracer::on()) threads = 1;

  if (threads <= 1) {
    for (int i = 0; i < n_jobs; ++i) job(i);
    return;
  }

  Batch batch(n_jobs, job);
  pool().run(batch, threads - 1);
  MutexLock lock(batch.mu);
  if (batch.first_error) std::rethrow_exception(batch.first_error);
}

}  // namespace detail

}  // namespace rrfd::sweep
