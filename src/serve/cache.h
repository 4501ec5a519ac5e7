// Result cache + in-flight dedup for the job server.
//
// Determinism is what makes this sound: results are a pure function of
// (job canonical form, seed, git rev) -- the sweep contract pins the
// first two (DESIGN.md "Sweep determinism"), and the rev pins the code.
// The cache key is exactly that triple:
//
//   <canonical>|seed=<seed>|rev=<git rev>
//
// Submitting a key that is already resolved replays the stored result
// stream (a *hit*); submitting a key that is currently executing
// attaches the caller to the in-flight entry (a *join*) so N concurrent
// identical submissions cost one execution and every submitter receives
// the byte-identical stream. Failures are delivered to joined waiters
// but never stored: a transient failure must not poison the key.
//
// Unknown-rev refusal: a binary built outside git stamps its traces
// `unknown` (src/trace/git_rev.cmake's fallback). Two *different* builds
// would then share every cache key -- stale results served across
// revisions. A cache constructed with rev "unknown" therefore refuses
// to store or join anything: every submission is a kBypass that the
// caller executes itself (counted, and tested in cache_test).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace rrfd::serve {

/// The deliverable outcome of one job execution: the result stream's
/// row payloads and done payload (rendered without the per-submission
/// envelope, so every subscriber -- whatever id it submitted under --
/// receives byte-identical result bytes), or a named execution error.
struct JobResult {
  std::vector<std::string> rows;  ///< payloads for `row` lines
  std::string done;               ///< payload for the `done` line
  bool failed = false;
  std::string error_code;         ///< e.g. "exec_error", "replay_divergence"
  std::string error_detail;
};

inline constexpr const char* kUnknownRev = "unknown";

class ResultCache {
 public:
  using Delivery = std::function<void(const JobResult&)>;

  enum class Outcome : std::uint8_t {
    kLead,    ///< caller must execute, then publish() or fail()
    kJoined,  ///< attached to an in-flight execution; delivery happens later
    kHit,     ///< stored result; delivery already invoked
    kBypass,  ///< caching disabled (unknown rev); caller executes, nothing stored
  };

  struct Stats {
    std::uint64_t leads = 0;    ///< executions started (cache misses)
    std::uint64_t joins = 0;    ///< in-flight dedups
    std::uint64_t hits = 0;     ///< stored-result replays
    std::uint64_t bypasses = 0; ///< unknown-rev refusals
    std::uint64_t failures = 0; ///< executions that failed (not stored)
  };

  explicit ResultCache(std::string git_rev);

  const std::string& git_rev() const { return git_rev_; }
  bool caching_enabled() const { return git_rev_ != kUnknownRev; }

  /// Builds the full cache key for a canonical form + seed under this
  /// cache's rev.
  std::string key(const std::string& canonical, std::uint64_t seed) const;

  /// Registers a submission. kHit hands the stored result back through
  /// `*hit` (the delivery is NOT invoked -- the caller renders it so it
  /// can put its ack line in front); kJoined stores `delivery` to be
  /// invoked from the leader's publish()/fail(); kLead and kBypass
  /// return nothing -- the caller executes the job (and, for kLead,
  /// must publish() or fail() exactly once).
  Outcome submit(const std::string& key, Delivery delivery,
                 std::shared_ptr<const JobResult>* hit);

  /// Resolves an in-flight key: stores the result and delivers it to
  /// every joined waiter. `result.failed` must be false. Returns the
  /// stored result -- the object every later kHit receives -- so the
  /// leader can deliver it without a copy of its own.
  std::shared_ptr<const JobResult> publish(const std::string& key,
                                           JobResult result);

  /// Resolves an in-flight key with a failure: delivers the error to
  /// every joined waiter and erases the entry (failures are not cached).
  void fail(const std::string& key, JobResult error);

  Stats stats() const;

 private:
  struct Entry {
    bool done = false;
    std::shared_ptr<const JobResult> result;  ///< set when done
    std::vector<Delivery> waiters;            ///< joined while in flight
  };

  const std::string git_rev_;
  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ RRFD_GUARDED_BY(mu_);
  Stats stats_ RRFD_GUARDED_BY(mu_);
};

}  // namespace rrfd::serve
