// The submodel lattice of Section 2, decided exactly by exhaustive
// pattern enumeration for small systems.
#include "core/submodel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/adversaries.h"
#include "core/predicates.h"
#include "core/words.h"

namespace rrfd::core {
namespace {

TEST(EnumeratePatterns, CountsTheFullSpace) {
  // (2^n - 1)^(n * rounds) patterns.
  long count = enumerate_patterns(2, 1, [](const FaultPattern&) { return true; });
  EXPECT_EQ(count, 9);  // 3^2
  count = enumerate_patterns(3, 1, [](const FaultPattern&) { return true; });
  EXPECT_EQ(count, 343);  // 7^3
  count = enumerate_patterns(2, 2, [](const FaultPattern&) { return true; });
  EXPECT_EQ(count, 81);  // 3^4
}

TEST(EnumeratePatterns, StopsEarlyWhenAsked) {
  long visits = 0;
  enumerate_patterns(3, 1, [&](const FaultPattern&) {
    return ++visits < 10;
  });
  EXPECT_EQ(visits, 10);
}

TEST(EnumeratePatterns, RejectsLargeSystems) {
  EXPECT_THROW(
      enumerate_patterns(8, 1, [](const FaultPattern&) { return true; }),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// Exact lattice facts (n = 3, 1-2 rounds)
// ---------------------------------------------------------------------------

TEST(Lattice, CrashImpliesOmissionBudget) {
  // "It is thus explicit in the model definition that the crash-fault
  // model is a submodel of the send-omission-fault model." In this
  // encoding the crash model relaxes no-self-suspicion for announced
  // (halted) processes, so the exact implication targets the omission
  // model's substance: the cumulative fault budget, plus no-self for
  // processes that are not announced.
  CumulativeFaultBound budget(1);
  auto r = implies_exhaustive(*sync_crash(1), budget, 3, 2);
  EXPECT_TRUE(r.holds) << r.counterexample->to_string();
  EXPECT_EQ(r.patterns_checked, 117649);  // 7^6

  NoSelfSuspicion exempt(/*exempt_announced=*/true);
  auto r2 = implies_exhaustive(*sync_crash(1), exempt, 3, 2);
  EXPECT_TRUE(r2.holds);

  // The literal strict-no-self omission predicate is NOT implied -- the
  // counterexample is exactly a halted process suspecting itself, which
  // the omission model (where processes never halt) has no reading for.
  auto strict = implies_exhaustive(*sync_crash(1), *sync_omission(1), 3, 2);
  EXPECT_FALSE(strict.holds);
  ASSERT_TRUE(strict.counterexample.has_value());
  bool self_after_announcement = false;
  const FaultPattern& cx = *strict.counterexample;
  for (Round round = 2; round <= cx.rounds(); ++round) {
    for (ProcId i = 0; i < cx.n(); ++i) {
      self_after_announcement =
          self_after_announcement ||
          (cx.d(i, round).contains(i) &&
           cx.cumulative_union(round - 1).contains(i));
    }
  }
  EXPECT_TRUE(self_after_announcement) << cx.to_string();
}

TEST(Lattice, OmissionDoesNotImplyCrash) {
  auto r = implies_exhaustive(*sync_omission(1), *sync_crash(1), 3, 2);
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  // The counterexample is a genuine omission-not-crash pattern.
  EXPECT_TRUE(sync_omission(1)->holds(*r.counterexample));
  EXPECT_FALSE(sync_crash(1)->holds(*r.counterexample));
}

TEST(Lattice, SnapshotImpliesSwmr) {
  // Item 5 is a submodel of item 4: containment + no-self forces some
  // process (the largest view's owner) to be heard... in fact the minimal
  // D in the chain excludes its own owner, so |union D| < n.
  auto r = implies_exhaustive(*atomic_snapshot(2), *swmr_shared_memory(2), 3, 1);
  EXPECT_TRUE(r.holds) << r.counterexample->to_string();
}

TEST(Lattice, SwmrDoesNotImplySnapshot) {
  auto r = implies_exhaustive(*swmr_shared_memory(2), *atomic_snapshot(2), 3, 1);
  EXPECT_FALSE(r.holds);
}

TEST(Lattice, SnapshotWithKMinus1ImpliesKUncertainty) {
  for (int k = 1; k <= 3; ++k) {
    auto r = implies_exhaustive(*atomic_snapshot(k - 1), *k_uncertainty(k), 3, 1);
    EXPECT_TRUE(r.holds) << "k=" << k << "\n"
                         << r.counterexample->to_string();
  }
}

TEST(Lattice, EqualAnnouncementsEquivalentTo1Uncertainty) {
  auto r = equivalent_exhaustive(*equal_announcements(), *k_uncertainty(1), 3, 2);
  EXPECT_TRUE(r.equivalent());
}

TEST(Lattice, ImmortalEquivalentToCumulativeNMinus1) {
  // Item 6's predicate manipulation, exactly.
  ImmortalProcess immortal;
  CumulativeFaultBound bound(2);  // n - 1 for n = 3
  auto r = equivalent_exhaustive(immortal, bound, 3, 2);
  EXPECT_TRUE(r.equivalent());
  EXPECT_TRUE(r.forward.holds);
  EXPECT_TRUE(r.backward.holds);
}

TEST(Lattice, AsyncIsSubmodelOfQuorumSkewButNotConversely) {
  auto fwd = implies_exhaustive(*async_message_passing(1), *quorum_skew(2, 1),
                                3, 1);
  EXPECT_TRUE(fwd.holds);
  // B allows a process to miss t=2 others, violating |D| <= 1.
  auto bwd = implies_exhaustive(*quorum_skew(2, 1), *async_message_passing(1),
                                3, 1);
  EXPECT_FALSE(bwd.holds);
}

TEST(Lattice, KUncertaintyDoesNotImplySnapshot) {
  // The converse of Corollary 3.2's step fails: bounded uncertainty says
  // nothing about containment.
  auto r = implies_exhaustive(*k_uncertainty(2), *atomic_snapshot(1), 3, 1);
  EXPECT_FALSE(r.holds);
}

TEST(Lattice, NoMutualMissAndSomeoneHeardAreIncomparable) {
  NoMutualMiss nmm;
  SomeoneHeardByAll sha;
  EXPECT_FALSE(implies_exhaustive(nmm, sha, 3, 1).holds);
  EXPECT_FALSE(implies_exhaustive(sha, nmm, 3, 1).holds);
}

TEST(Lattice, UncertaintyIsMonotoneInK) {
  for (int k = 1; k <= 2; ++k) {
    auto r = implies_exhaustive(*k_uncertainty(k), *k_uncertainty(k + 1), 3, 1);
    EXPECT_TRUE(r.holds);
  }
}

// ---------------------------------------------------------------------------
// Engine modes agree with the naive sweep
// ---------------------------------------------------------------------------

/// Every engine configuration that must return the same lattice answer.
std::vector<EnumOptions> all_modes() {
  EnumOptions defaults;
  EnumOptions no_prune;
  no_prune.prune = false;
  EnumOptions sym_off;
  sym_off.symmetry = Symmetry::kOff;
  EnumOptions sym_on;
  sym_on.symmetry = Symmetry::kOn;
  EnumOptions bare;
  bare.prune = false;
  bare.symmetry = Symmetry::kOff;
  return {defaults, no_prune, sym_off, sym_on, bare};
}

TEST(ExhaustiveModes, AgreeWithNaiveSweepOnLatticePairs) {
  struct Case {
    PredicatePtr a, b;
  };
  const std::vector<Case> cases = {
      {atomic_snapshot(1), k_uncertainty(2)},     // holds
      {k_uncertainty(2), atomic_snapshot(1)},     // refuted
      {sync_crash(1), sync_omission(1)},          // refuted (2 rounds)
      {equal_announcements(), k_uncertainty(1)},  // holds
  };
  for (const Round rounds : {1, 2}) {
    for (const auto& c : cases) {
      // Naive reference: full odometer sweep, no pruning, no symmetry.
      std::int64_t space = 0;
      bool naive_holds = true;
      enumerate_patterns(3, rounds, [&](const FaultPattern& p) {
        ++space;
        if (c.a->holds(p) && !c.b->holds(p)) naive_holds = false;
        return true;
      });
      for (const auto& opts : all_modes()) {
        auto r = implies_exhaustive(*c.a, *c.b, 3, rounds, opts);
        EXPECT_EQ(r.holds, naive_holds)
            << c.a->name() << " => " << c.b->name() << " rounds=" << rounds;
        if (naive_holds) {
          // Every configuration must decide the *entire* space: pruned
          // subtrees and symmetry orbits still count all their leaves.
          EXPECT_EQ(r.patterns_checked, space);
          EXPECT_EQ(r.stats.patterns_decided, space);
          EXPECT_FALSE(r.counterexample.has_value());
        } else {
          ASSERT_TRUE(r.counterexample.has_value());
          EXPECT_EQ(r.counterexample->rounds(), rounds);
          EXPECT_TRUE(c.a->holds(*r.counterexample));
          EXPECT_FALSE(c.b->holds(*r.counterexample));
        }
      }
    }
  }
}

TEST(ExhaustiveModes, ResultIndependentOfShardExecutionOrder) {
  // Shards may run in any order on any threads; the merge must still
  // report the counterexample of the lowest-numbered refuting shard and
  // the same work counts. Reverse execution order is the adversarial
  // schedule for that splice.
  EnumOptions reversed;
  reversed.runner = [](int n_jobs, const std::function<void(int)>& job) {
    for (int s = n_jobs - 1; s >= 0; --s) job(s);
  };
  const auto a = k_uncertainty(2);
  const auto b = atomic_snapshot(1);
  const auto serial = implies_exhaustive(*a, *b, 3, 1);
  const auto serial2 = implies_exhaustive(*a, *b, 3, 1);
  const auto rev = implies_exhaustive(*a, *b, 3, 1, reversed);
  for (const auto& r : {serial2, rev}) {
    EXPECT_EQ(r.holds, serial.holds);
    EXPECT_EQ(r.patterns_checked, serial.patterns_checked);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(*r.counterexample, *serial.counterexample);
    EXPECT_EQ(r.stats.nodes, serial.stats.nodes);
    EXPECT_EQ(r.stats.expanded_roots, serial.stats.expanded_roots);
  }
}

TEST(ExhaustiveCounts, FullSpaceCountExceeds32Bits) {
  // 15^8 = 2562890625 complete patterns at n = 4, 2 rounds -- more than
  // fits in 32 bits. cumulative(4) is vacuous at n = 4, so the b-side
  // evaluator promises kSatisfiedForever immediately and pruning decides
  // the whole space from a handful of nodes.
  NeverFaulty nf;
  CumulativeFaultBound vacuous(4);
  auto r = implies_exhaustive(nf, vacuous, 4, 2);
  EXPECT_TRUE(r.holds);
  EXPECT_EQ(r.patterns_checked, std::int64_t{2562890625});
  EXPECT_LT(r.stats.nodes, 10000);
  EXPECT_TRUE(r.stats.symmetry_used);
}

TEST(ExhaustiveBudget, ThrowsWhenNodeBudgetExceeded) {
  EnumOptions tiny;
  tiny.node_budget = 10;
  EXPECT_THROW(
      implies_exhaustive(*sync_crash(1), *sync_omission(1), 3, 2, tiny),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// Word-width boundary (n = 63, 64)
// ---------------------------------------------------------------------------

TEST(WordBoundary, ExhaustiveSearchRejectsUnrepresentableSpacesCleanly) {
  // At n >= 63 the digit base 2^n - 1 itself overflows int64; the engine
  // must refuse with a ContractViolation before any enumeration --
  // directly and through the equivalence wrapper. A missed
  // guard here would be a shift-by-63/64 on the way to a bogus space
  // count, so these throws are what UBSan holds clean.
  NeverFaulty nf;
  PerRoundFaultBound bound(1);
  for (const int n : {63, 64}) {
    EXPECT_THROW(implies_exhaustive(nf, bound, n, 1), ContractViolation)
        << "n=" << n;
    EXPECT_THROW(equivalent_exhaustive(nf, bound, n, 1), ContractViolation)
        << "n=" << n;
    EXPECT_THROW(
        enumerate_patterns(n, 1, [](const FaultPattern&) { return true; }),
        ContractViolation)
        << "n=" << n;
  }
  // n = kMaxProcesses itself is in-contract for non-enumerative uses;
  // only sizes beyond the word are malformed.
  EXPECT_THROW(
      enumerate_patterns(kMaxProcesses + 1, 1,
                         [](const FaultPattern&) { return true; }),
      ContractViolation);
}

TEST(WordBoundary, FaultPatternRoundTripsFullWordPatterns) {
  // Bit 63 live everywhere: D(i,r) = S \ {i} is the largest legal mask at
  // n = 64. The word arena must hand back exactly the words it was given,
  // whether a round is appended as words or as sets.
  const int n = 64;
  const std::uint64_t full = full_mask(n);
  FaultPattern words(n);
  FaultPattern sets(n);
  std::vector<std::uint64_t> d(static_cast<std::size_t>(n));
  for (Round r = 1; r <= 3; ++r) {
    for (int i = 0; i < n; ++i) {
      d[static_cast<std::size_t>(i)] =
          r == 2 ? 0 : full & ~(std::uint64_t{1} << i);
    }
    words.append(d.data());
    sets.append(words.round(r));
    EXPECT_TRUE(std::equal(d.begin(), d.end(), sets.words(r)));
  }
  EXPECT_EQ(words, sets);
  EXPECT_EQ(words.d(63, 1).bits(), full & ~(std::uint64_t{1} << 63));
  EXPECT_EQ(words.round_union(1), ProcessSet::all(n));  // all suspected
  EXPECT_TRUE(words.round_intersection(1).empty());  // nobody by all
  EXPECT_TRUE(words.round_union(2).empty());
  // A rejected round (here D = S) leaves the pattern untouched.
  d[17] = full;
  EXPECT_THROW(words.append(d.data()), ContractViolation);
  EXPECT_EQ(words, sets);
}

TEST(WordBoundary, ZooEvaluatorsHandleFullWordRounds) {
  // Zoo word cores at n = 64 (and 63, the last guarded size): suspect
  // everyone-but-self, which trips per-round bounds but not self-
  // suspicion, with bit 63 set in most words.
  for (const int n : {63, 64}) {
    std::vector<std::uint64_t> words(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      words[static_cast<std::size_t>(i)] =
          full_mask(n) & ~(std::uint64_t{1} << i);
    }
    NoSelfSuspicion no_self;
    auto self_eval = no_self.evaluator();
    self_eval->begin(n, 2);
    EXPECT_EQ(self_eval->push_round(words.data()),
              StepVerdict::kSatisfiedSoFar)
        << "n=" << n;
    PerRoundFaultBound bound(1);
    auto bound_eval = bound.evaluator();
    bound_eval->begin(n, 2);
    EXPECT_EQ(bound_eval->push_round(words.data()),
              StepVerdict::kViolatedForever)
        << "n=" << n;
    SomeoneHeardByAll heard;
    auto heard_eval = heard.evaluator();
    heard_eval->begin(n, 2);
    EXPECT_EQ(heard_eval->push_round(words.data()),
              StepVerdict::kViolatedForever)  // union is all of S
        << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Non-prefix-closed custom predicates
// ---------------------------------------------------------------------------

/// Holds only for complete 2-round patterns: every proper prefix violates
/// it, so any engine that pruned on its violations would decide the whole
/// space vacuously. prunable() stays default-false.
class ExactlyTwoRounds final : public Predicate {
 public:
  std::string name() const override { return "exactly-two-rounds"; }
  std::string description() const override { return "rounds() == 2"; }
  bool holds(const FaultPattern& p) const override { return p.rounds() == 2; }
};

TEST(ExhaustiveCustom, NonPrefixClosedPredicateIsNotPrunedUnsoundly) {
  ExactlyTwoRounds only_two;
  NeverFaulty nf;
  // Every 1-round prefix violates A, yet genuine 2-round counterexamples
  // (patterns where each process is announced somewhere) exist below
  // them. The engine must keep descending through A's violations.
  auto r = implies_exhaustive(only_two, nf, 2, 2);
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(r.counterexample->rounds(), 2);
  EXPECT_TRUE(only_two.holds(*r.counterexample));
  EXPECT_FALSE(nf.holds(*r.counterexample));
  // kAuto must not symmetry-reduce a predicate that never declared
  // symmetric(); kOn insists and therefore throws.
  EXPECT_FALSE(r.stats.symmetry_used);
  EnumOptions force;
  force.symmetry = Symmetry::kOn;
  EXPECT_THROW(implies_exhaustive(only_two, nf, 2, 2, force),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Sampled checks (larger systems)
// ---------------------------------------------------------------------------

TEST(SampledImplication, PassesForTrueImplications) {
  SnapshotAdversary adv(16, 1, /*seed=*/5);
  auto r = implies_on_samples(adv, *k_uncertainty(2), 3, 500);
  EXPECT_TRUE(r.holds);
  EXPECT_EQ(r.patterns_checked, 500);
}

TEST(SampledImplication, RefutesWithACounterexample) {
  AsyncAdversary adv(8, 3, /*seed=*/5);
  auto r = implies_on_samples(adv, *atomic_snapshot(3), 3, 500);
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_FALSE(atomic_snapshot(3)->holds(*r.counterexample));
}

}  // namespace
}  // namespace rrfd::core
