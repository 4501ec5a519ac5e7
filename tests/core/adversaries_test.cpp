// Every adversary must stay inside its model's predicate, for every seed.
// These are the property sweeps that license using adversaries as stand-ins
// for "forall D(i,r) families satisfying P" in the experiments.
#include "core/adversaries.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/predicates.h"
#include "util/str.h"

namespace rrfd::core {
namespace {

constexpr Round kRounds = 6;

// ---------------------------------------------------------------------------
// Parameterized soundness sweep: (n, f, seed)
// ---------------------------------------------------------------------------

using Params = std::tuple<int, int, std::uint64_t>;

class AdversarySoundness : public ::testing::TestWithParam<Params> {
 protected:
  int n() const { return std::get<0>(GetParam()); }
  int f() const { return std::get<1>(GetParam()); }
  std::uint64_t seed() const { return std::get<2>(GetParam()); }
};

TEST_P(AdversarySoundness, OmissionSatisfiesSyncOmission) {
  OmissionAdversary adv(n(), f(), seed());
  FaultPattern p = record_pattern(adv, kRounds);
  EXPECT_TRUE(sync_omission(f())->holds(p)) << p.to_string();
}

TEST_P(AdversarySoundness, CrashSatisfiesSyncCrash) {
  CrashAdversary adv(n(), f(), seed());
  FaultPattern p = record_pattern(adv, kRounds);
  EXPECT_TRUE(sync_crash(f())->holds(p)) << p.to_string();
}

TEST_P(AdversarySoundness, AsyncSatisfiesPerRoundBound) {
  AsyncAdversary adv(n(), f(), seed());
  FaultPattern p = record_pattern(adv, kRounds);
  EXPECT_TRUE(async_message_passing(f())->holds(p)) << p.to_string();
}

TEST_P(AdversarySoundness, SwmrSatisfiesSwmrModel) {
  SwmrAdversary adv(n(), f(), seed());
  FaultPattern p = record_pattern(adv, kRounds);
  EXPECT_TRUE(swmr_shared_memory(f())->holds(p)) << p.to_string();
}

TEST_P(AdversarySoundness, SnapshotSatisfiesAtomicSnapshotModel) {
  SnapshotAdversary adv(n(), f(), seed());
  FaultPattern p = record_pattern(adv, kRounds);
  EXPECT_TRUE(atomic_snapshot(f())->holds(p)) << p.to_string();
}

TEST_P(AdversarySoundness, ResetReplaysIdenticalPattern) {
  SnapshotAdversary adv(n(), f(), seed());
  FaultPattern a = record_pattern(adv, kRounds);
  adv.reset();
  FaultPattern b = record_pattern(adv, kRounds);
  for (Round r = 1; r <= kRounds; ++r) {
    for (ProcId i = 0; i < n(); ++i) EXPECT_EQ(a.d(i, r), b.d(i, r));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversarySoundness,
    ::testing::Combine(::testing::Values(3, 5, 8, 16, 32, 64),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 42u, 20260706u)),
    [](const ::testing::TestParamInfo<Params>& pinfo) {
      return cat("n", std::get<0>(pinfo.param), "_f", std::get<1>(pinfo.param),
                 "_s", std::get<2>(pinfo.param));
    });

// ---------------------------------------------------------------------------
// k-uncertainty sweep: (n, k, seed)
// ---------------------------------------------------------------------------

class KUncertaintySoundness : public ::testing::TestWithParam<Params> {};

TEST_P(KUncertaintySoundness, SatisfiesKUncertainty) {
  auto [n, k, seed] = GetParam();
  KUncertaintyAdversary adv(n, k, seed);
  FaultPattern p = record_pattern(adv, kRounds);
  EXPECT_TRUE(k_uncertainty(k)->holds(p)) << p.to_string();
}

TEST_P(KUncertaintySoundness, UsuallyExercisesTheFullEnvelope) {
  // The adversary should not be degenerate: across enough rounds it should
  // produce at least one round with nonzero disagreement when k > 1.
  auto [n, k, seed] = GetParam();
  if (k == 1) GTEST_SKIP() << "k=1 forbids any disagreement";
  KUncertaintyAdversary adv(n, k, seed);
  FaultPattern p = record_pattern(adv, 50);
  bool disagreed = false;
  for (Round r = 1; r <= p.rounds(); ++r) {
    disagreed = disagreed ||
                !(p.round_union(r) - p.round_intersection(r)).empty();
  }
  EXPECT_TRUE(disagreed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KUncertaintySoundness,
    ::testing::Combine(::testing::Values(4, 8, 24, 64),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(7u, 1234u)),
    [](const ::testing::TestParamInfo<Params>& pinfo) {
      return cat("n", std::get<0>(pinfo.param), "_k", std::get<1>(pinfo.param),
                 "_s", std::get<2>(pinfo.param));
    });

// ---------------------------------------------------------------------------
// Remaining adversaries
// ---------------------------------------------------------------------------

TEST(ScriptedAdversary, ReplaysThenGoesBenign) {
  FaultPattern p(3);
  p.append({ProcessSet(3, {1}), ProcessSet(3), ProcessSet(3)});
  ScriptedAdversary adv(p);
  RoundFaults r1 = record_pattern(adv, 1).round(1);
  EXPECT_EQ(r1[0], ProcessSet(3, {1}));
  RoundFaults r2 = record_pattern(adv, 1).round(1);
  EXPECT_TRUE(union_over(r2).empty());
  adv.reset();
  EXPECT_EQ(record_pattern(adv, 1).d(0, 1), ProcessSet(3, {1}));
}

TEST(BenignAdversary, NeverAnnounces) {
  BenignAdversary adv(5);
  FaultPattern p = record_pattern(adv, 10);
  EXPECT_TRUE(NeverFaulty().holds(p));
}

TEST(ImmortalAdversary, ChosenProcessIsNeverAnnounced) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ImmortalAdversary adv(6, seed, /*immortal=*/2);
    FaultPattern p = record_pattern(adv, 8);
    EXPECT_TRUE(detector_s()->holds(p));
    EXPECT_FALSE(p.cumulative_union().contains(2));
  }
}

TEST(ImmortalAdversary, PicksARandomImmortalWhenUnspecified) {
  ImmortalAdversary adv(6, /*seed=*/3);
  EXPECT_GE(adv.immortal(), 0);
  EXPECT_LT(adv.immortal(), 6);
  FaultPattern p = record_pattern(adv, 8);
  EXPECT_FALSE(p.cumulative_union().contains(adv.immortal()));
}

TEST(EqualAdversary, AllProcessesSeeTheSameSet) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    EqualAdversary adv(7, seed, /*miss_prob=*/0.8);
    FaultPattern p = record_pattern(adv, 6);
    EXPECT_TRUE(equal_announcements()->holds(p)) << p.to_string();
  }
}

TEST(OmissionAdversary, FaultyPoolHasExactlyF) {
  OmissionAdversary adv(8, 3, /*seed=*/11);
  EXPECT_EQ(adv.faulty_pool().size(), 3);
}

TEST(CrashAdversary, AnnouncementsAreMonotone) {
  CrashAdversary adv(8, 4, /*seed=*/21, /*crash_prob=*/0.5);
  ProcessSet prev(8);
  for (Round r = 1; r <= 10; ++r) {
    record_pattern(adv, 1);
    EXPECT_TRUE(prev.subset_of(adv.announced()));
    prev = adv.announced();
  }
  EXPECT_LE(adv.announced().size(), 4);
}

// ---------------------------------------------------------------------------
// ChainAdversary: structure of the lower-bound execution
// ---------------------------------------------------------------------------

TEST(ChainAdversary, IsAValidSyncCrashPattern) {
  for (int k = 1; k <= 3; ++k) {
    for (int f = k; f <= 3 * k; f += k) {
      const int rounds = f / k;
      const int n = k * rounds + k + 2;
      ChainAdversary adv(n, f, k);
      FaultPattern p = record_pattern(adv, rounds + 2);
      EXPECT_TRUE(sync_crash(f)->holds(p))
          << "k=" << k << " f=" << f << "\n"
          << p.to_string();
    }
  }
}

TEST(ChainAdversary, OnlySuccessorHearsTheCrasher) {
  ChainAdversary adv(8, 4, 2);  // R = 2 rounds, chains {0,2},{1,3}
  ASSERT_EQ(adv.rounds(), 2);
  RoundFaults r1 = record_pattern(adv, 1).round(1);
  // Round 1 crashers are 0 and 1; successors are 2 and 3.
  for (ProcId i = 0; i < 8; ++i) {
    EXPECT_EQ(!r1[static_cast<std::size_t>(i)].contains(0), i == 2 || i == 0);
    EXPECT_EQ(!r1[static_cast<std::size_t>(i)].contains(1), i == 3 || i == 1);
  }
  RoundFaults r2 = record_pattern(adv, 1).round(1);
  // Round 2: 0 and 1 announced everywhere; crashers 2,3 heard only by the
  // terminals 4 and 5.
  for (ProcId i = 0; i < 8; ++i) {
    EXPECT_TRUE(r2[static_cast<std::size_t>(i)].contains(0));
    EXPECT_TRUE(r2[static_cast<std::size_t>(i)].contains(1));
    EXPECT_EQ(!r2[static_cast<std::size_t>(i)].contains(2), i == 4 || i == 2);
    EXPECT_EQ(!r2[static_cast<std::size_t>(i)].contains(3), i == 5 || i == 3);
  }
}

TEST(ChainAdversary, ViolatingInputsLayout) {
  ChainAdversary adv(8, 4, 2);
  const std::vector<int> inputs = adv.violating_inputs();
  EXPECT_EQ(inputs[0], 0);
  EXPECT_EQ(inputs[1], 1);
  for (std::size_t i = 2; i < inputs.size(); ++i) EXPECT_EQ(inputs[i], 2);
}

TEST(ChainAdversary, RejectsTooSmallSystems) {
  EXPECT_THROW(ChainAdversary(4, 4, 2), ContractViolation);  // needs n >= 7
  EXPECT_THROW(ChainAdversary(8, 1, 2), ContractViolation);  // k > f
}

TEST(ChainAdversary, CrasherAndTerminalIndexing) {
  ChainAdversary adv(12, 6, 2);  // R = 3
  EXPECT_EQ(adv.crasher(0, 1), 0);
  EXPECT_EQ(adv.crasher(1, 1), 1);
  EXPECT_EQ(adv.crasher(0, 2), 2);
  EXPECT_EQ(adv.crasher(1, 3), 5);
  EXPECT_EQ(adv.terminal(0), 6);
  EXPECT_EQ(adv.terminal(1), 7);
}

}  // namespace
}  // namespace rrfd::core
