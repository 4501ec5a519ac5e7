// The adopt-commit protocol of Section 4.2 (simplified from Yang, Neiger
// & Gafni, the paper's reference [16]).
//
// Wait-free (n-1-resilient) in SWMR shared memory. Guarantees:
//   1. If every input equals v, every process commits v.
//   2. If any process commits v, every process commits or adopts v
//      (in particular nobody commits a different value).
// Two register arrays: round 1 publishes proposals; a process that saw a
// unanimous round 1 proposes to commit. Because the first round-2 write
// fixes the only committable value, commits can't diverge.
#pragma once

#include <optional>
#include <vector>

#include "shm/registers.h"
#include "util/check.h"

namespace rrfd::agreement {

/// Outcome of one adopt-commit instance for one process.
struct AdoptCommitResult {
  bool commit = false;
  int value = 0;

  friend bool operator==(const AdoptCommitResult& a,
                         const AdoptCommitResult& b) {
    return a.commit == b.commit && a.value == b.value;
  }
};

/// One-shot adopt-commit object; each process calls run() at most once.
class AdoptCommit {
 public:
  explicit AdoptCommit(int n) : round1_(n), round2_(n) {}

  int n() const { return round1_.n(); }

  AdoptCommitResult run(runtime::Context& ctx, int proposal) {
    // Each array is read cell by cell in index order: the n steps of a
    // collect(), without building its vector.
    // -- Round 1: publish the proposal, look for unanimity. --------------
    round1_.write(ctx, proposal);
    std::optional<int> first;
    bool unanimous = true;
    for (core::ProcId j = 0; j < n(); ++j) {
      const std::optional<int> cell = round1_.read(ctx, j);
      if (!cell) continue;
      if (!first) {
        first = *cell;
      } else if (*cell != *first) {
        unanimous = false;
      }
    }
    RRFD_ENSURE(first.has_value());  // at least our own write

    round2_.write(ctx, unanimous ? Tagged{/*commit=*/true, *first}
                                 : Tagged{/*commit=*/false, proposal});

    // -- Round 2: a commit seen anywhere forces convergence. -------------
    bool all_commit_v = true;
    std::optional<int> committed;
    for (core::ProcId j = 0; j < n(); ++j) {
      const std::optional<Tagged> cell = round2_.read(ctx, j);
      if (!cell) continue;
      if (cell->commit) {
        RRFD_ENSURE_MSG(!committed || *committed == cell->value,
                        "two distinct commit proposals: protocol broken");
        committed = cell->value;
      } else {
        all_commit_v = false;
      }
    }

    if (committed && all_commit_v) return {true, *committed};
    if (committed) return {false, *committed};
    return {false, proposal};
  }

  /// Re-collects the round-1 proposals (n reads). Used by the Theorem 4.3
  /// simulation: when a process ends with "adopt faulty" it needs the
  /// simulated value some alive-proposer published; the protocol
  /// guarantees such a proposal was written before any faulty adoption
  /// could form, so one extra collect finds it.
  std::vector<std::optional<int>> collect_proposals(runtime::Context& ctx) const {
    return round1_.collect(ctx);
  }

 private:
  struct Tagged {
    bool commit = false;
    int value = 0;
  };

  shm::SwmrArray<int> round1_;
  shm::SwmrArray<Tagged> round2_;
};

}  // namespace rrfd::agreement
