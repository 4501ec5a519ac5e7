// The model zoo: every RRFD predicate defined in the paper.
//
// Section 2 items 1-6, the k-uncertainty detector of Theorem 3.1, and the
// equal-announcement detector of Section 5 (equation 5). Primitive
// constraints are separate classes so that the submodel lattice ("P_A =>
// P_B") is visible in the composition; factory functions at the bottom
// assemble the named systems exactly as the paper does.
//
// Every zoo predicate is *prunable* (its violations are stable under
// extending the pattern with more rounds) and *symmetric* (invariant
// under renaming processes), and each provides a true incremental
// StepEvaluator — O(n) per pushed round — so the exhaustive submodel
// engine (core/submodel.h) can prefix-prune and symmetry-reduce its
// enumeration. The primitives with a Heard-Of twin share one evaluator
// with it (core/constraints.h): ImmortalProcess runs the cumulative cap
// at n - 1, EqualAnnouncements runs KUncertainty(1), and NeverFaulty and
// SomeoneHeardByAll run one mobile cap (0 and n - 1). predicates_test
// pins evaluator verdicts against holds() on every prefix.
#pragma once

#include "core/predicate.h"

namespace rrfd::core {

// ---------------------------------------------------------------------------
// Primitive constraints
// ---------------------------------------------------------------------------

/// forall i, r: p_i not in D(i,r). First half of predicate (1).
///
/// The crash model needs a relaxation: once a process has been announced by
/// somebody, monotonicity (predicate 2) forces it into *every* later D set,
/// including its own. `exempt_announced` permits self-suspicion for
/// processes already in the cumulative union of earlier rounds, resolving
/// the tension between predicates (1) and (2) the way the paper intends
/// (a crashed process has halted; its own announcements are moot).
class NoSelfSuspicion final : public Predicate {
 public:
  explicit NoSelfSuspicion(bool exempt_announced = false)
      : exempt_announced_(exempt_announced) {}
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }

 private:
  bool exempt_announced_;
};

/// |U_{r>0} U_{p_i} D(i,r)| <= f. Second half of predicate (1): at most f
/// distinct processes are ever announced, across all rounds and observers.
class CumulativeFaultBound final : public Predicate {
 public:
  explicit CumulativeFaultBound(int f);
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }

  int f() const { return f_; }

 private:
  int f_;
};

/// forall r>0, p_k: U_{p_i} D(i,r) subseteq D(k,r+1). Predicate (2):
/// a process announced anywhere in round r is announced everywhere from
/// round r+1 on -- the signature of a real crash.
class CrashMonotonicity final : public Predicate {
 public:
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
};

/// forall i, r: |D(i,r)| <= f. Predicate (3): the asynchronous bound --
/// each process may miss at most f others in each round, but *which* f may
/// change freely between rounds and observers.
class PerRoundFaultBound final : public Predicate {
 public:
  explicit PerRoundFaultBound(int f);
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }

  int f() const { return f_; }

 private:
  int f_;
};

/// forall r: |U_{p_i} D(i,r)| < n. Predicate (4): in every round at least
/// one process is announced to nobody -- the "first writer is read by all"
/// property of SWMR shared memory; rules out network partitions.
class SomeoneHeardByAll final : public Predicate {
 public:
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
};

/// forall r, i, j: p_j in D(i,r) => p_i not in D(j,r). The alternative
/// shared-memory constraint discussed in item 4: no two processes miss
/// each other in the same round.
class NoMutualMiss final : public Predicate {
 public:
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
};

/// forall r, i, j: D(i,r) subseteq D(j,r) or D(j,r) subseteq D(i,r).
/// Containment half of the Atomic-Snapshot model (item 5): announcements
/// in a round form a chain, exactly the structure of immediate snapshots.
class ContainmentChain final : public Predicate {
 public:
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
};

/// exists p_j such that p_j is never in any D(i,r). Item 6: the RRFD
/// counterpart of the strong failure detector S (weak accuracy: some
/// process is never suspected by anyone). Over any finite pattern this is
/// equivalent to CumulativeFaultBound(n-1); the equivalence is tested.
class ImmortalProcess final : public Predicate {
 public:
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
};

/// forall r: |U_i D(i,r) minus ^_i D(i,r)| < k. Theorem 3.1's detector: per
/// round, fewer than k processes are announced to some but not to all --
/// the detector's "uncertainty" is bounded by k.
class KUncertainty final : public Predicate {
 public:
  explicit KUncertainty(int k);
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }

  int k() const { return k_; }

 private:
  int k_;
};

/// forall r, i, j: D(i,r) == D(j,r). Equation (5), Section 5: the
/// semi-synchronous detector announces identically to everybody. This is
/// KUncertainty with k = 1.
class EqualAnnouncements final : public Predicate {
 public:
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
};

/// Item 3's system B: in each round there is a set Q, |Q| <= t, such that
/// processes outside Q miss at most f others while processes inside Q may
/// miss up to t. With f < t and 2t < n, two rounds of B implement one
/// round of the plain asynchronous system A (see xform::RoundCombiner);
/// B strictly contains A, which is why A is *not* a weakest RRFD for the
/// asynchronous message-passing system.
class QuorumSkew final : public Predicate {
 public:
  QuorumSkew(int t, int f);
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }

  int t() const { return t_; }
  int f() const { return f_; }

 private:
  int t_;
  int f_;
};

/// D(i,r) always empty: the fault-free synchronous system (Section 6's
/// Awerbuch synchronizer setting, where synchrony and asynchrony coincide).
class NeverFaulty final : public Predicate {
 public:
  std::string name() const override;
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
};

// ---------------------------------------------------------------------------
// Named systems (Section 2 / 3 / 5 compositions)
// ---------------------------------------------------------------------------

/// Item 1: synchronous message passing, at most f send-omission faults.
/// Predicate (1): no self-suspicion AND cumulative bound f.
PredicatePtr sync_omission(int f);

/// Item 2: synchronous message passing, at most f crash faults.
/// Predicate (1) (with the announced-process exemption) AND predicate (2).
PredicatePtr sync_crash(int f);

/// Item 3: asynchronous message passing, at most f crash failures.
/// Predicate (3).
PredicatePtr async_message_passing(int f);

/// Item 4: asynchronous SWMR shared memory, at most f crash failures.
/// Predicate (3) AND predicate (4).
PredicatePtr swmr_shared_memory(int f);

/// Item 4 (alternative reading): predicate (3) AND no-mutual-miss AND
/// predicate (4) -- the conjunction the paper says is needed at the least.
PredicatePtr swmr_shared_memory_alt(int f);

/// Item 5: asynchronous Atomic-Snapshot shared memory, at most f crashes.
/// Predicate (3) /\ no self-suspicion /\ containment chain.
PredicatePtr atomic_snapshot(int f);

/// Item 6: the strong-failure-detector system S (all but one process may
/// crash): some process is never announced to anyone.
PredicatePtr detector_s();

/// Theorem 3.1: the k-set-agreement detector.
PredicatePtr k_uncertainty(int k);

/// Section 5 / equation (5): the semi-synchronous detector.
PredicatePtr equal_announcements();

/// Item 3's system B (see QuorumSkew).
PredicatePtr quorum_skew(int t, int f);

}  // namespace rrfd::core
