// Submodel relations: "A is a submodel of B iff P_A => P_B" (Section 2).
//
// The paper's methodology is to compare systems by contrasting their
// RRFDs; this module makes the comparison executable. For small systems
// the implication is *decided exactly*; for larger systems it is probed
// by sampling an adversary for the candidate submodel.
//
// The exact decision procedure is a prefix-pruned DFS over rounds rather
// than a flat sweep of the (2^n - 1)^(n * rounds) pattern space:
//
//  * Incremental evaluation. Both predicates are consulted through their
//    StepEvaluator (core/predicate.h) after every round extension --
//    O(n) per enumeration node instead of O(n * rounds) per leaf.
//  * Prefix pruning. A subtree is cut as soon as A reports
//    kViolatedForever (when A is prunable(): no pattern below satisfies
//    A, so the implication is vacuous there) or B reports
//    kSatisfiedForever (no counterexample can exist below). Cut subtrees
//    still contribute their full leaf count to `patterns_checked`.
//  * Symmetry reduction. When both predicates are symmetric() and n <= 4
//    the engine expands only first rounds that are canonical under
//    process renaming and weights each by its orbit size, dividing the
//    work by up to n!. The canonical first rounds come from a table built
//    once per process for each n. The memo seed pass explores one subtree
//    per renaming class of states, at every depth, and below a state it
//    expands one next round per orbit of the state's group (the renamings
//    that leave its evaluator key unchanged), weighted by the orbit size;
//    those rounds come from per-subgroup tables built on first use.
//  * Deterministic sharding. The first-round index range is split into a
//    fixed number of shards *independent of thread count*; shard results
//    are spliced back in shard order, so the outcome (counterexample,
//    counts, or budget error) is byte-identical whether shards run
//    serially or on any number of threads. Parallel execution is
//    injected via EnumOptions::runner (see sweep/submodel_parallel.h);
//    core itself stays dependency-free.
//
// Runaway searches are stopped by a per-shard node budget (a
// ContractViolation, reported deterministically) instead of the old
// hard n/rounds cap; pattern spaces whose size overflows int64 are
// rejected up front.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/adversary.h"
#include "core/predicate.h"
#include "core/words.h"

namespace rrfd::core {

/// Invokes `visit` for every fault pattern over n processes and `rounds`
/// rounds (every combination of proper-subset D sets). Returns the number
/// visited. If `visit` returns false, enumeration stops early. This is
/// the naive reference sweep (no pruning, no symmetry); the exact
/// implication checks below agree with it and are tested against it.
/// Requires the space size (2^n - 1)^(n * rounds) to be representable in
/// int64 -- termination within a lifetime is the caller's problem.
std::int64_t enumerate_patterns(
    int n, Round rounds, const std::function<bool(const FaultPattern&)>& visit);

/// Process-permutation symmetry reduction policy for the exact checks.
enum class Symmetry {
  /// Reduce iff both predicates declare symmetric() and n <= 4, the
  /// largest n with a canonical-first-round table. The default.
  kAuto,
  /// Never reduce. Required when comparing against the naive sweep
  /// node-for-node; also the only sound choice for asymmetric custom
  /// predicates (kAuto handles that automatically).
  kOff,
  /// Always reduce. Requires both predicates to be symmetric() and
  /// n <= 4; otherwise the check throws before enumerating.
  kOn,
};

/// Suffix-count memoization policy for the exact checks. When enabled,
/// each shard keeps a transposition table keyed by (canonical evaluator
/// state of A, of B, rounds remaining) whose value is the exact work
/// profile of the whole suffix subtree, so a repeated state is decided
/// in O(1) instead of re-enumerating up to (2^n - 1)^(n * remaining)
/// patterns. Sound only through StepEvaluator::state_bytes; evaluators
/// without a canonical key (the whole-pattern fallback, custom
/// predicates) silently fall back to the plain DFS. Memoization never
/// changes any result or statistic other than the memo_* counters: the
/// counts, counterexample, budget behaviour, and sharded byte-identity
/// are exactly those of the unmemoized search. See "Suffix memoization"
/// in DESIGN.md.
enum class Memo {
  /// Memoize whenever sound and useful (both evaluators keyed, at least
  /// two rounds). The default.
  kAuto,
  /// Never memoize.
  kOff,
};

/// Executes `job(0) .. job(n_jobs - 1)`, each exactly once, in any order
/// and on any threads. The default (a null runner) is a serial loop;
/// sweep/submodel_parallel.h supplies a pool-backed one. Results do not
/// depend on the runner choice.
using ShardRunner =
    std::function<void(int n_jobs, const std::function<void(int)>& job)>;

/// Tuning knobs for the exact checks. The defaults reproduce the
/// documented semantics; every knob only changes *how fast* an answer is
/// found, never which answer.
struct EnumOptions {
  /// Cut subtrees on kViolatedForever (prunable A) / kSatisfiedForever
  /// (B). Off = visit every node; only useful as a benchmark baseline.
  bool prune = true;
  Symmetry symmetry = Symmetry::kAuto;
  /// Max enumeration nodes per shard before the check aborts with a
  /// ContractViolation. Exceeding it is reported deterministically: the
  /// lowest-numbered exceeding shard wins, regardless of thread count.
  std::int64_t node_budget = 1'000'000'000;
  /// Shard executor; null runs shards serially in-process.
  ShardRunner runner;
  /// The round representation the DFS feeds the evaluators. kWord is the
  /// only one: the odometer digits are the D(i,r) words handed to
  /// StepEvaluator::push_round.
  EnginePath path = EnginePath::kWord;
  /// Suffix-count memoization over canonical evaluator states. Like
  /// every other knob: only changes how fast, never which answer.
  Memo memo = Memo::kAuto;
};

/// Work accounting for one exact check.
struct EnumStats {
  std::int64_t nodes = 0;            ///< prefix nodes expanded
  std::int64_t leaves = 0;           ///< full-depth nodes expanded
  std::int64_t pruned_subtrees = 0;  ///< inner nodes cut by a verdict
  /// Complete patterns whose implication status was decided, weighted by
  /// symmetry orbit: equals the full space size when the implication
  /// holds everywhere.
  std::int64_t patterns_decided = 0;
  std::int64_t expanded_roots = 0;  ///< first rounds expanded (canonical)
  std::int64_t total_roots = 0;     ///< (2^n - 1)^n
  bool symmetry_used = false;
  int shards = 0;
  /// Suffix-memoization accounting (all zero when memoization is off or
  /// the evaluators are keyless). Deterministic at any thread count,
  /// like every other field: tables are per-shard plus a seed table
  /// filled serially before the shards run. memo_entries counts seed
  /// entries once plus every shard-local insertion; a memo hit's
  /// decided-pattern mass is included in patterns_decided, and its
  /// subtree's nodes/leaves/pruned_subtrees are included in those
  /// fields, so all non-memo statistics equal the unmemoized run's.
  std::int64_t memo_hits = 0;
  std::int64_t memo_misses = 0;
  std::int64_t memo_entries = 0;
};

/// Result of an implication check.
struct ImplicationResult {
  bool holds = true;
  /// Complete patterns decided (== EnumStats::patterns_decided for the
  /// exact checks; sample count for implies_on_samples). On a refuted
  /// exact check this reflects only the work up to the counterexample.
  std::int64_t patterns_checked = 0;
  std::optional<FaultPattern> counterexample;  ///< a pattern in A \ B
  EnumStats stats;                             ///< exact checks only
};

/// Exact check of P_A => P_B over all patterns of the given size, with
/// default options. The refuting counterexample, when one exists, is the
/// first in deterministic engine order: shards take strided first-round
/// indices (shard s visits s, s + shards, ...), the lowest-numbered
/// refuting shard wins, and within a shard roots are visited in
/// ascending index with deeper rounds depth-first, process 0's digit
/// varying fastest. The order is fixed by the shard count, never by the
/// runner's thread count.
ImplicationResult implies_exhaustive(const Predicate& a, const Predicate& b,
                                     int n, Round rounds);

/// Exact check with explicit options (pruning, symmetry, budget, runner).
ImplicationResult implies_exhaustive(const Predicate& a, const Predicate& b,
                                     int n, Round rounds,
                                     const EnumOptions& options);

/// Sampled check: records `samples` patterns from `a_adversary` (assumed
/// to satisfy A) and tests them against B. A failure refutes A => B; a
/// pass is evidence only.
ImplicationResult implies_on_samples(Adversary& a_adversary,
                                     const Predicate& b, Round rounds,
                                     int samples);

/// Exact equivalence check (both implications).
struct EquivalenceResult {
  ImplicationResult forward;   // A => B
  ImplicationResult backward;  // B => A
  bool equivalent() const { return forward.holds && backward.holds; }
};
EquivalenceResult equivalent_exhaustive(const Predicate& a, const Predicate& b,
                                        int n, Round rounds);
EquivalenceResult equivalent_exhaustive(const Predicate& a, const Predicate& b,
                                        int n, Round rounds,
                                        const EnumOptions& options);

}  // namespace rrfd::core
