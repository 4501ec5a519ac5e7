// Parallel deterministic sweep execution.
//
// Every experiment in EXPERIMENTS.md is a sweep: hundreds of seeded
// adversary trials per parameter cell, or an exhaustive enumeration of
// fault patterns / schedules. All of them are embarrassingly parallel --
// trials are independent by construction -- but naively fanning them out
// loses the property the whole repository is built on: byte-identical
// reproducibility from a seed.
//
// sweep::run keeps it. The contract ("Sweep determinism", DESIGN.md):
//
//  1. Trial i's randomness comes from Rng::stream(seed, i), a pure
//     function of the root seed and the trial counter. No fork() chain,
//     no shared generator: a worker can derive trial 731's generator
//     without having touched trials 0..730.
//  2. Results land in a vector indexed by trial, so the returned sequence
//     is ordered by trial index regardless of completion order.
//  3. Thread count changes scheduling only, never results: run(n, s, f, 1)
//     and run(n, s, f, 8) return identical vectors (sweep_test pins this
//     byte-for-byte over an E1-shaped workload).
//  4. Tracing forces serial: the flight recorder's Tracer is one
//     process-wide sink, so if a sink is attached the trials execute on
//     the calling thread in trial order -- the trace is then identical to
//     the serial run's. (Workers never write the global sink
//     concurrently.)
//  5. If trials throw, the exception with the lowest trial index is
//     rethrown -- the same one the serial loop would have surfaced first.
//
// Opt-in: thread count defaults to RRFD_SWEEP_THREADS (unset/0/1 =>
// serial). Benches that measure per-op latency keep their timing loops
// serial and use the pool only for summary sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace rrfd::sweep {

/// Worker count from RRFD_SWEEP_THREADS: 0 (serial) when unset or empty;
/// a non-numeric or out-of-range value is a ContractViolation (strict,
/// like every other knob in this repository).
int threads_from_env();

namespace detail {

/// Runs job(0), ..., job(n_jobs - 1) across `threads` workers (claimed
/// from a shared counter): the calling thread and up to threads - 1
/// helpers from one process-wide pool (DESIGN.md "Sweep determinism").
/// threads <= 1 -- or an attached trace sink --
/// executes serially on the calling thread in index order. All jobs run
/// even if some throw; afterwards the exception with the lowest job index
/// is rethrown, so the surfaced failure is schedule-independent.
void run_indexed(int n_jobs, int threads,
                 const std::function<void(int)>& job);

}  // namespace detail

/// Runs `fn(trial, rng)` for every trial in [0, n_trials), each with its
/// own counter-derived Rng stream, and returns the results ordered by
/// trial index. `fn` must be safe to call concurrently from different
/// threads (trials share no mutable state through the sweep itself).
template <typename Fn>
auto run(int n_trials, std::uint64_t seed, Fn&& fn,
         int threads = threads_from_env()) {
  using R = std::invoke_result_t<Fn&, int, Rng&>;
  static_assert(!std::is_void_v<R>,
                "sweep::run collects per-trial results; return the trial's "
                "outcome (use a struct for multiple values)");
  RRFD_REQUIRE(n_trials >= 0);
  std::vector<std::optional<R>> slots(static_cast<std::size_t>(n_trials));
  detail::run_indexed(n_trials, threads, [&](int trial) {
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(trial));
    slots[static_cast<std::size_t>(trial)].emplace(fn(trial, rng));
  });
  std::vector<R> results;
  results.reserve(slots.size());
  for (auto& slot : slots) {
    // run_indexed only returns normally when every job ran to completion
    // (a throwing trial is rethrown above). A disengaged slot here would
    // therefore be a scheduler bug -- surface it as a ContractViolation
    // rather than dereferencing an empty optional (UB).
    RRFD_ENSURE_MSG(slot.has_value(),
                    "sweep::run: trial slot left empty after run_indexed");
    results.push_back(std::move(*slot));
  }
  return results;
}

}  // namespace rrfd::sweep
