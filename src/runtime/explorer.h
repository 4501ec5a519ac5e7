// Exhaustive schedule exploration (bounded model checking) for protocols
// running on the cooperative runtime.
//
// The explorer enumerates the tree of scheduler choices by depth-first
// search with replay: each run follows a forced prefix and then defaults
// to the first alternative, recording the alternatives available at every
// new decision point; backtracking advances the deepest unexplored branch.
// With a crash budget, "crash p" choices are enumerated alongside "step p"
// choices, so safety properties are checked against every interleaving
// *and* every crash placement (up to the budget).
//
// A decision point is stored flat: the runnable mask, its size, the
// alternative count and the chosen index. The alternatives are each
// runnable process's step by id, then (within the crash budget) each
// one's crash, so a replay decodes its choice from the mask without
// building a list. Replaying a schedule allocates nothing here; the path
// vector grows only when the tree gets deeper than any run before.
//
// The DFS tree can also be partitioned by its first decision: discover
// the root alternatives with root_alternatives(), then explore each
// root-fixed subtree independently with explore_shard(). The shards are
// disjoint and cover the tree, and shard k enumerates exactly the
// schedules the serial explore() visits between advancing the root to its
// k-th alternative and the next root advance -- so running the shards in
// index order reproduces the serial visit sequence exactly. sweep::
// explore_sharded (src/sweep) fans the shards across a thread pool.
//
// Exhaustive exploration is exponential; it is meant for small instances
// (n <= 3, short protocols) as in tests/agreement/adopt_commit_test.cpp,
// which model-checks the paper's Section 4.2 protocol.
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/sim.h"

namespace rrfd::runtime {

class ScheduleExplorer {
 public:
  struct Options {
    long max_schedules = 100000;  ///< stop after this many runs (per shard)
    int max_crashes = 0;          ///< crash-choice budget per schedule
  };

  struct Stats {
    long schedules = 0;   ///< runs executed
    bool exhausted = false;  ///< true iff the whole (sub)tree was covered
  };

  ScheduleExplorer() = default;
  explicit ScheduleExplorer(Options options) : options_(options) {}

  /// Runs `run_one` once per schedule. `run_one` must build a *fresh*
  /// simulation, run it with the provided scheduler, and perform its
  /// assertions; any exception it throws aborts the exploration and
  /// propagates to the caller (carrying the failing schedule's context).
  Stats explore(const std::function<void(Scheduler&)>& run_one);

  /// Discovers the alternatives of the tree's first decision point by
  /// replaying one schedule. Executes `run_one` exactly once (a probe run
  /// whose side effects the caller must expect); the result is empty iff
  /// the program has no decision point at all, in which case that probe
  /// run was the tree's only schedule.
  std::vector<Scheduler::Choice> root_alternatives(
      const std::function<void(Scheduler&)>& run_one) const;

  /// Explores the subtree in which the first decision is pinned to
  /// `root[shard]`, where `root` is the list returned by
  /// root_alternatives(). Stats cover this shard only (max_schedules is a
  /// per-shard budget); `first_ordinal` offsets the schedule ordinals in
  /// flight-recorder events so a shard-sequential traced run is
  /// byte-identical to the serial one.
  Stats explore_shard(const std::vector<Scheduler::Choice>& root,
                      std::size_t shard,
                      const std::function<void(Scheduler&)>& run_one,
                      long first_ordinal = 0);

 private:
  /// One decision point, as a flat value: the runnable set the run reached
  /// it with, that set's size, the number of alternatives and the chosen
  /// one. Alternative k < steps steps the k-th runnable process by id; the
  /// next `steps` alternatives, present while the crash budget lasts, crash
  /// them in the same order. Storing `steps` spares a replayed pick the
  /// popcount.
  struct Node {
    std::uint64_t runnable = 0;
    int steps = 0;
    int alternatives = 0;
    int chosen = 0;

    Scheduler::Choice choice(int k) const;
  };

  /// Scheduler used for one replayed run; records new decision points.
  class TreeScheduler final : public Scheduler {
   public:
    TreeScheduler(std::vector<Node>& path, int max_crashes)
        : path_(path), max_crashes_(max_crashes) {}

    Choice pick(const ProcessSet& runnable, int step) override;

    /// Decision points this run actually consumed.
    std::size_t depth() const { return depth_; }

   private:
    std::vector<Node>& path_;
    int max_crashes_;
    int crashes_ = 0;
    std::size_t depth_ = 0;
  };

  /// The DFS loop. `path` is the starting replay prefix; the first
  /// `frozen` nodes are pinned -- backtracking never advances them, and
  /// reaching them means the (sub)tree is exhausted.
  Stats explore_impl(std::vector<Node> path, std::size_t frozen,
                     long first_ordinal,
                     const std::function<void(Scheduler&)>& run_one);

  Options options_{};
};

}  // namespace rrfd::runtime
