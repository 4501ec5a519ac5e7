// Declarative checks of every model predicate in the zoo, plus the
// submodel relations Section 2 states explicitly.
#include "core/predicates.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/adversaries.h"
#include "core/submodel.h"
#include "evaluator_conformance.h"

namespace rrfd::core {
namespace {

FaultPattern pattern_of(int n, std::vector<RoundFaults> rounds) {
  FaultPattern p(n);
  for (auto& r : rounds) p.append(std::move(r));
  return p;
}

// ---------------------------------------------------------------------------
// NoSelfSuspicion
// ---------------------------------------------------------------------------

TEST(NoSelfSuspicion, AcceptsSelfFreePattern) {
  NoSelfSuspicion pred;
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_TRUE(pred.holds(p));
}

TEST(NoSelfSuspicion, RejectsSelfSuspicion) {
  NoSelfSuspicion pred;
  auto p = pattern_of(3, {{ProcessSet(3, {0}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(p));
}

TEST(NoSelfSuspicion, ExemptionAllowsSelfAfterAnnouncement) {
  NoSelfSuspicion strict;
  NoSelfSuspicion exempt(/*exempt_announced=*/true);
  // p0 announced by p1 in round 1; p0 suspects itself in round 2.
  auto p = pattern_of(3, {{ProcessSet(3), ProcessSet(3, {0}), ProcessSet(3)},
                          {ProcessSet(3, {0}), ProcessSet(3, {0}),
                           ProcessSet(3, {0})}});
  EXPECT_FALSE(strict.holds(p));
  EXPECT_TRUE(exempt.holds(p));
}

TEST(NoSelfSuspicion, ExemptionDoesNotCoverFirstRoundSelf) {
  NoSelfSuspicion exempt(/*exempt_announced=*/true);
  auto p = pattern_of(3, {{ProcessSet(3, {0}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_FALSE(exempt.holds(p));
}

// ---------------------------------------------------------------------------
// CumulativeFaultBound
// ---------------------------------------------------------------------------

TEST(CumulativeFaultBound, CountsDistinctProcessesAcrossRounds) {
  CumulativeFaultBound pred(2);
  auto p = pattern_of(4, {{ProcessSet(4, {1}), ProcessSet(4), ProcessSet(4),
                           ProcessSet(4)},
                          {ProcessSet(4, {2}), ProcessSet(4, {1}),
                           ProcessSet(4), ProcessSet(4)}});
  EXPECT_TRUE(pred.holds(p));  // {1,2} -- exactly 2 distinct
}

TEST(CumulativeFaultBound, RejectsWhenExceeded) {
  CumulativeFaultBound pred(1);
  auto p = pattern_of(4, {{ProcessSet(4, {1}), ProcessSet(4), ProcessSet(4),
                           ProcessSet(4)},
                          {ProcessSet(4, {2}), ProcessSet(4), ProcessSet(4),
                           ProcessSet(4)}});
  EXPECT_FALSE(pred.holds(p));
}

TEST(CumulativeFaultBound, ZeroMeansNoAnnouncements) {
  CumulativeFaultBound pred(0);
  EXPECT_TRUE(pred.holds(FaultPattern(3)));
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(p));
}

// ---------------------------------------------------------------------------
// CrashMonotonicity
// ---------------------------------------------------------------------------

TEST(CrashMonotonicity, AcceptsGrowingAnnouncements) {
  CrashMonotonicity pred;
  auto p = pattern_of(
      3, {{ProcessSet(3, {2}), ProcessSet(3), ProcessSet(3)},
          {ProcessSet(3, {2}), ProcessSet(3, {2}), ProcessSet(3, {2})}});
  EXPECT_TRUE(pred.holds(p));
}

TEST(CrashMonotonicity, RejectsForgottenCrash) {
  CrashMonotonicity pred;
  auto p = pattern_of(3, {{ProcessSet(3, {2}), ProcessSet(3), ProcessSet(3)},
                          {ProcessSet(3), ProcessSet(3), ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(p));
}

TEST(CrashMonotonicity, RequiresAnnouncementToEveryone) {
  CrashMonotonicity pred;
  // p2 announced in round 1, but p1 doesn't carry it in round 2.
  auto p = pattern_of(
      3, {{ProcessSet(3, {2}), ProcessSet(3), ProcessSet(3)},
          {ProcessSet(3, {2}), ProcessSet(3), ProcessSet(3, {2})}});
  EXPECT_FALSE(pred.holds(p));
}

// ---------------------------------------------------------------------------
// PerRoundFaultBound
// ---------------------------------------------------------------------------

TEST(PerRoundFaultBound, BoundsEveryProcessEveryRound) {
  PerRoundFaultBound pred(1);
  auto ok = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3, {0}),
                            ProcessSet(3, {0})}});
  EXPECT_TRUE(pred.holds(ok));
  auto bad = pattern_of(3, {{ProcessSet(3, {1, 2}), ProcessSet(3),
                             ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(bad));
}

TEST(PerRoundFaultBound, AllowsChangingTargets) {
  // The asynchronous signature: different misses in different rounds are
  // fine as long as each round's set is small.
  PerRoundFaultBound pred(1);
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3), ProcessSet(3)},
                          {ProcessSet(3, {2}), ProcessSet(3), ProcessSet(3)},
                          {ProcessSet(3, {0}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_TRUE(pred.holds(p));
  // ...even though the cumulative union (3 processes) exceeds f = 1.
  EXPECT_FALSE(CumulativeFaultBound(1).holds(p));
}

// ---------------------------------------------------------------------------
// SomeoneHeardByAll
// ---------------------------------------------------------------------------

TEST(SomeoneHeardByAll, RejectsPartition) {
  SomeoneHeardByAll pred;
  // Every process announced to somebody: 0 misses 1, 1 misses 2, 2 misses 0.
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3, {2}),
                           ProcessSet(3, {0})}});
  EXPECT_FALSE(pred.holds(p));
}

TEST(SomeoneHeardByAll, AcceptsWhenOneProcessIsUniversallyHeard) {
  SomeoneHeardByAll pred;
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3, {0}),
                           ProcessSet(3, {0, 1})}});
  EXPECT_TRUE(pred.holds(p));  // p2 announced to nobody
}

// ---------------------------------------------------------------------------
// NoMutualMiss
// ---------------------------------------------------------------------------

TEST(NoMutualMiss, RejectsSymmetricMiss) {
  NoMutualMiss pred;
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3, {0}),
                           ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(p));
}

TEST(NoMutualMiss, AcceptsCyclicMisses) {
  // The paper's point: a cycle 0 misses 1 misses 2 misses 0 satisfies
  // no-mutual-miss but violates someone-heard-by-all, so the two
  // predicates are incomparable.
  NoMutualMiss pred;
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3, {2}),
                           ProcessSet(3, {0})}});
  EXPECT_TRUE(pred.holds(p));
  EXPECT_FALSE(SomeoneHeardByAll().holds(p));
}

// ---------------------------------------------------------------------------
// ContainmentChain
// ---------------------------------------------------------------------------

TEST(ContainmentChain, AcceptsChain) {
  ContainmentChain pred;
  auto p = pattern_of(3, {{ProcessSet(3, {2}), ProcessSet(3, {2}),
                           ProcessSet(3)}});
  EXPECT_TRUE(pred.holds(p));
}

TEST(ContainmentChain, RejectsIncomparableSets) {
  ContainmentChain pred;
  auto p = pattern_of(4, {{ProcessSet(4, {1}), ProcessSet(4, {2}),
                           ProcessSet(4), ProcessSet(4)}});
  EXPECT_FALSE(pred.holds(p));
}

// ---------------------------------------------------------------------------
// ImmortalProcess
// ---------------------------------------------------------------------------

TEST(ImmortalProcess, HoldsWhenSomeoneNeverAnnounced) {
  ImmortalProcess pred;
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3, {0}),
                           ProcessSet(3)}});
  EXPECT_TRUE(pred.holds(p));  // p2 never announced
}

TEST(ImmortalProcess, FailsWhenEveryoneAnnouncedEventually) {
  ImmortalProcess pred;
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3, {2}),
                           ProcessSet(3)},
                          {ProcessSet(3, {0}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(p));
}

TEST(ImmortalProcess, EquivalentToCumulativeBoundNMinus1) {
  // Item 6's predicate manipulation: |U U D| < n <=> some process never
  // announced. Checked over random async patterns.
  ImmortalProcess immortal;
  CumulativeFaultBound bound(3);  // n-1 for n=4
  AsyncAdversary adv(4, 3, /*seed=*/77);
  for (int trial = 0; trial < 200; ++trial) {
    FaultPattern p = record_pattern(adv, 4);
    EXPECT_EQ(immortal.holds(p), bound.holds(p)) << p.to_string();
  }
}

// ---------------------------------------------------------------------------
// KUncertainty
// ---------------------------------------------------------------------------

TEST(KUncertainty, K1MeansIdenticalAnnouncements) {
  KUncertainty pred(1);
  auto agree = pattern_of(3, {uniform_round(3, ProcessSet(3, {1}))});
  EXPECT_TRUE(pred.holds(agree));
  auto disagree = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3),
                                  ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(disagree));
}

TEST(KUncertainty, CountsUnionMinusIntersection) {
  KUncertainty pred2(2);
  KUncertainty pred1(1);
  // Disagreement on exactly one process (p1): union {1,2}, intersection {2}.
  auto p = pattern_of(3, {{ProcessSet(3, {1, 2}), ProcessSet(3, {2}),
                           ProcessSet(3, {2})}});
  EXPECT_TRUE(pred2.holds(p));
  EXPECT_FALSE(pred1.holds(p));
}

TEST(KUncertainty, EqualAnnouncementsImpliesEveryK) {
  EqualAnnouncements eq;
  auto p = pattern_of(4, {uniform_round(4, ProcessSet(4, {0, 3}))});
  ASSERT_TRUE(eq.holds(p));
  for (int k = 1; k <= 4; ++k) EXPECT_TRUE(KUncertainty(k).holds(p));
}

// ---------------------------------------------------------------------------
// EqualAnnouncements
// ---------------------------------------------------------------------------

TEST(EqualAnnouncements, DetectsAnyDeviation) {
  EqualAnnouncements pred;
  auto p = pattern_of(3, {uniform_round(3, ProcessSet(3, {2})),
                          {ProcessSet(3, {2}), ProcessSet(3, {2}),
                           ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(p));
}

// ---------------------------------------------------------------------------
// QuorumSkew
// ---------------------------------------------------------------------------

TEST(QuorumSkew, AcceptsWithinSkew) {
  QuorumSkew pred(/*t=*/2, /*f=*/1);
  // Two processes miss 2 (inside Q), the rest miss <= 1.
  auto p = pattern_of(5, {{ProcessSet(5, {1, 2}), ProcessSet(5, {3, 4}),
                           ProcessSet(5, {0}), ProcessSet(5), ProcessSet(5)}});
  EXPECT_TRUE(pred.holds(p));
}

TEST(QuorumSkew, RejectsTooManyOversized) {
  QuorumSkew pred(/*t=*/2, /*f=*/1);
  auto p = pattern_of(5, {{ProcessSet(5, {1, 2}), ProcessSet(5, {3, 4}),
                           ProcessSet(5, {0, 4}), ProcessSet(5),
                           ProcessSet(5)}});
  EXPECT_FALSE(pred.holds(p));  // three processes exceed f=1 > t=2
}

TEST(QuorumSkew, RejectsAboveT) {
  QuorumSkew pred(/*t=*/2, /*f=*/1);
  auto p = pattern_of(5, {{ProcessSet(5, {1, 2, 3}), ProcessSet(5),
                           ProcessSet(5), ProcessSet(5), ProcessSet(5)}});
  EXPECT_FALSE(pred.holds(p));  // |D| = 3 > t
}

TEST(QuorumSkew, AsyncIsSubmodelOfQuorumSkew) {
  // Section 2 item 3: A (plain async with f) is a strict submodel of B.
  AsyncAdversary adv(6, 1, /*seed=*/5);
  QuorumSkew b(/*t=*/2, /*f=*/1);
  for (int trial = 0; trial < 100; ++trial) {
    FaultPattern p = record_pattern(adv, 3);
    ASSERT_TRUE(PerRoundFaultBound(1).holds(p));
    EXPECT_TRUE(b.holds(p));
  }
}

// ---------------------------------------------------------------------------
// NeverFaulty
// ---------------------------------------------------------------------------

TEST(NeverFaulty, OnlyAcceptsEmptyAnnouncements) {
  NeverFaulty pred;
  FaultPattern clean(3);
  clean.append(uniform_round(3, ProcessSet(3)));
  EXPECT_TRUE(pred.holds(clean));
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_FALSE(pred.holds(p));
}

// ---------------------------------------------------------------------------
// Composition / named systems
// ---------------------------------------------------------------------------

TEST(NamedSystems, CrashIsSubmodelOfOmission) {
  // "It is thus explicit in the model definition that the crash-fault
  // model is a submodel of the send-omission-fault model."
  auto crash = sync_crash(2);
  for (unsigned trial = 0; trial < 200; ++trial) {
    CrashAdversary adv(5, 2, /*seed=*/13 + trial);
    FaultPattern p = record_pattern(adv, 5);
    ASSERT_TRUE(crash->holds(p)) << p.to_string();
    // A crash pattern in which no process self-suspects is an omission
    // pattern; self-suspicion only appears for announced (halted)
    // processes, which the omission model reads as "p_i late to its own
    // round" -- excluded there, so restrict the check to the strict part:
    EXPECT_TRUE(CumulativeFaultBound(2).holds(p));
  }
}

TEST(NamedSystems, SnapshotImpliesKUncertaintyAtKMinus1Failures) {
  // The step behind Corollary 3.2: the item-5 predicate with f = k-1
  // implies Theorem 3.1's predicate (containment makes union \ intersection
  // = largest D \ smallest D, of size <= f = k-1 < k).
  const int n = 6;
  for (int k = 1; k <= 4; ++k) {
    SnapshotAdversary adv(n, k - 1, /*seed=*/1000u + static_cast<unsigned>(k));
    auto snap = atomic_snapshot(k - 1);
    auto kunc = k_uncertainty(k);
    for (int trial = 0; trial < 100; ++trial) {
      FaultPattern p = record_pattern(adv, 3);
      ASSERT_TRUE(snap->holds(p)) << p.to_string();
      EXPECT_TRUE(kunc->holds(p)) << p.to_string();
    }
  }
}

TEST(NamedSystems, EqualAnnouncementsIsOneUncertainty) {
  EqualAdversary adv(5, /*seed=*/99);
  auto one = k_uncertainty(1);
  for (int trial = 0; trial < 100; ++trial) {
    FaultPattern p = record_pattern(adv, 3);
    ASSERT_TRUE(equal_announcements()->holds(p));
    EXPECT_TRUE(one->holds(p));
  }
}

TEST(NamedSystems, AndPredicateReportsParts) {
  auto sys = sync_crash(1);
  EXPECT_NE(sys->description().find("crash-monotonicity"),
            std::string::npos);
  EXPECT_EQ(sys->name(), "sync-crash(f=1)");
}

TEST(NamedSystems, AndPredicateShortCircuits) {
  auto sys = sync_omission(0);
  auto p = pattern_of(3, {{ProcessSet(3, {1}), ProcessSet(3), ProcessSet(3)}});
  EXPECT_FALSE(sys->holds(p));
}

TEST(NamedSystems, PrefixClosureOfZooPatterns) {
  // All paper models are prefix-closed; holds_all_prefixes must agree with
  // holds for adversary-generated patterns.
  SwmrAdversary adv(5, 2, /*seed=*/4242);
  auto sys = swmr_shared_memory(2);
  for (int trial = 0; trial < 50; ++trial) {
    FaultPattern p = record_pattern(adv, 4);
    EXPECT_EQ(sys->holds(p), sys->holds_all_prefixes(p));
  }
}

// ---------------------------------------------------------------------------
// Incremental evaluators (the exhaustive engine's view of the zoo)
// ---------------------------------------------------------------------------

/// Every instantiation the conformance sweep covers.
std::vector<PredicatePtr> evaluator_zoo() {
  return {
      std::make_shared<NoSelfSuspicion>(),
      std::make_shared<NoSelfSuspicion>(/*exempt_announced=*/true),
      std::make_shared<CumulativeFaultBound>(0),
      std::make_shared<CumulativeFaultBound>(1),
      std::make_shared<CumulativeFaultBound>(3),  // >= n at n = 2 and 3
      std::make_shared<CrashMonotonicity>(),
      std::make_shared<PerRoundFaultBound>(0),
      std::make_shared<PerRoundFaultBound>(1),
      std::make_shared<SomeoneHeardByAll>(),
      std::make_shared<NoMutualMiss>(),
      std::make_shared<ContainmentChain>(),
      std::make_shared<ImmortalProcess>(),
      std::make_shared<KUncertainty>(1),
      std::make_shared<KUncertainty>(2),
      std::make_shared<EqualAnnouncements>(),
      std::make_shared<QuorumSkew>(2, 1),
      std::make_shared<NeverFaulty>(),
      sync_crash(1),
      atomic_snapshot(1),
  };
}

TEST(StepEvaluators, ConformToHoldsOnEveryPrefixN2) {
  for (const auto& pred : evaluator_zoo()) {
    check_evaluator_conformance(*pred, 2, 3);  // 9 + 81 + 729 prefixes
  }
}

TEST(StepEvaluators, ConformToHoldsOnEveryPrefixN3) {
  for (const auto& pred : evaluator_zoo()) {
    check_evaluator_conformance(*pred, 3, 2);  // 343 + 117649 prefixes
  }
}

TEST(StepEvaluators, ZooDeclaresPrunableAndSymmetric) {
  for (const auto& pred : evaluator_zoo()) {
    EXPECT_TRUE(pred->prunable()) << pred->name();
    EXPECT_TRUE(pred->symmetric()) << pred->name();
    // The symmetry claim must be real: renaming-invariant holds() and
    // three-valued verdicts.
    check_renaming_invariance(*pred, 3, 2);
  }
}

TEST(StepEvaluators, DefaultTraitsAreConservative) {
  // A custom predicate that overrides nothing gets the whole-pattern
  // fallback evaluator and neither trait -- the engine then neither
  // prunes on its violations nor symmetry-reduces.
  class EveryOther final : public Predicate {
   public:
    std::string name() const override { return "every-other"; }
    std::string description() const override { return "rounds() is even"; }
    bool holds(const FaultPattern& p) const override {
      return p.rounds() % 2 == 0;
    }
  };
  EveryOther pred;
  EXPECT_FALSE(pred.prunable());
  EXPECT_FALSE(pred.symmetric());
  // The fallback evaluator still reports exact per-prefix verdicts.
  check_evaluator_conformance(pred, 2, 3);
}

TEST(StepEvaluators, HoldsAllPrefixesSeesNonPrefixClosedViolations) {
  // holds() accepts any 2-round pattern, but the 1-round prefix fails:
  // holds_all_prefixes must say false even though holds says true.
  class ExactlyTwoRounds final : public Predicate {
   public:
    std::string name() const override { return "exactly-two-rounds"; }
    std::string description() const override { return "rounds() == 2"; }
    bool holds(const FaultPattern& p) const override {
      return p.rounds() == 2;
    }
  };
  ExactlyTwoRounds pred;
  FaultPattern p(3);
  p.append(uniform_round(3, ProcessSet(3)));
  p.append(uniform_round(3, ProcessSet(3)));
  EXPECT_TRUE(pred.holds(p));
  EXPECT_FALSE(pred.holds_all_prefixes(p));
}

// ---------------------------------------------------------------------------
// AndPredicate trait propagation
// ---------------------------------------------------------------------------

/// Not prefix-closed: a faulty prefix is repaired by a quiet final round.
/// Also not symmetric in spirit -- but declares neither trait, which is
/// exactly what a conjunction must respect.
class LastRoundQuiet final : public Predicate {
 public:
  std::string name() const override { return "last-round-quiet"; }
  std::string description() const override {
    return "the final round suspects nobody";
  }
  bool holds(const FaultPattern& p) const override {
    return p.rounds() == 0 || p.round_union(p.rounds()).empty();
  }
};

TEST(AndPredicateTraits, ConjunctionIsOnlyAsStrongAsItsWeakestPart) {
  // prunable()/symmetric() must be the AND over all conjuncts: one
  // non-prefix-closed part poisons the whole conjunction. A conjunction
  // that ignored the weak part would let the engine prune away patterns
  // whose violations later repair.
  auto weak = std::make_shared<LastRoundQuiet>();
  ASSERT_FALSE(weak->prunable());
  ASSERT_FALSE(weak->symmetric());

  auto mixed = all_of("bound-and-quiet",
                      {std::make_shared<PerRoundFaultBound>(1), weak});
  EXPECT_FALSE(mixed->prunable());
  EXPECT_FALSE(mixed->symmetric());

  // Order must not matter.
  auto flipped = all_of("quiet-and-bound",
                        {weak, std::make_shared<PerRoundFaultBound>(1)});
  EXPECT_FALSE(flipped->prunable());
  EXPECT_FALSE(flipped->symmetric());

  // All-strong conjunctions keep both traits.
  auto strong = all_of("bound-and-immortal",
                       {std::make_shared<PerRoundFaultBound>(1),
                        std::make_shared<ImmortalProcess>()});
  EXPECT_TRUE(strong->prunable());
  EXPECT_TRUE(strong->symmetric());

  // Nested conjunctions propagate transitively.
  auto nested = all_of("nested", {strong, mixed});
  EXPECT_FALSE(nested->prunable());
  EXPECT_FALSE(nested->symmetric());
}

TEST(AndPredicateTraits, FallbackEvaluatorStaysExactForWeakConjunction) {
  auto mixed = all_of("bound-and-quiet",
                      {std::make_shared<PerRoundFaultBound>(1),
                       std::make_shared<LastRoundQuiet>()});
  check_evaluator_conformance(*mixed, 2, 3);
  check_evaluator_conformance(*mixed, 3, 2);
}

TEST(AndPredicateTraits, EngineFindsViolationsBehindRepairedPrefixes) {
  // Regression for unsound pruning: every 2-round pattern satisfying
  // bound-and-quiet with a fault in round 1 violates NeverFaulty, and
  // every such pattern has a violating (non-quiet) 1-round prefix. If
  // the conjunction wrongly claimed prunable(), the engine would cut
  // those subtrees after the prefix violation and "prove" the bogus
  // implication bound-and-quiet => never-faulty.
  auto mixed = all_of("bound-and-quiet",
                      {std::make_shared<PerRoundFaultBound>(1),
                       std::make_shared<LastRoundQuiet>()});
  const ImplicationResult r =
      implies_exhaustive(*mixed, *std::make_shared<NeverFaulty>(), 2, 2);
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(mixed->holds(*r.counterexample));
  EXPECT_FALSE(NeverFaulty().holds(*r.counterexample));
  // The witness necessarily passes through a violated prefix.
  EXPECT_FALSE(mixed->holds_all_prefixes(*r.counterexample));
}

}  // namespace
}  // namespace rrfd::core
