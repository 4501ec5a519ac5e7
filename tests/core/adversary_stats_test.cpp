// Statistical sanity of the adversary generators: an adversary that is
// technically inside its predicate but degenerate (never announcing,
// always announcing the same process) would make the property sweeps
// vacuous. These tests pin down that the generators exercise their
// envelopes.
#include <gtest/gtest.h>

#include <map>

#include "core/adversaries.h"

namespace rrfd::core {
namespace {

TEST(AdversaryStats, OmissionPoolIsActuallyExercised) {
  OmissionAdversary adv(8, 3, /*seed=*/5, /*miss_prob=*/0.5);
  FaultPattern p = record_pattern(adv, 50);
  // Every pool member should be announced at least once over 50 rounds.
  EXPECT_EQ(p.cumulative_union(), adv.faulty_pool());
}

TEST(AdversaryStats, OmissionTargetsDifferentObserversDifferently) {
  OmissionAdversary adv(8, 3, /*seed=*/5);
  bool asymmetric = false;
  for (int r = 0; r < 20 && !asymmetric; ++r) {
    RoundFaults round = record_pattern(adv, 1).round(1);
    for (std::size_t i = 1; i < round.size(); ++i) {
      asymmetric = asymmetric || round[i] != round[0];
    }
  }
  EXPECT_TRUE(asymmetric) << "send-omission must be per-observer";
}

TEST(AdversaryStats, AsyncMissSizesSpreadOverTheBound) {
  AsyncAdversary adv(10, 3, /*seed=*/11);
  std::map<int, int> size_histogram;
  for (int r = 0; r < 200; ++r) {
    for (const ProcessSet& d : record_pattern(adv, 1).round(1)) {
      ++size_histogram[d.size()];
    }
  }
  // All sizes 0..f occur, none beyond f.
  for (int s = 0; s <= 3; ++s) EXPECT_GT(size_histogram[s], 0) << s;
  for (const auto& [size, count] : size_histogram) {
    EXPECT_LE(size, 3);
    (void)count;
  }
}

TEST(AdversaryStats, CrashAdversaryEventuallySpendsItsBudget) {
  CrashAdversary adv(8, 3, /*seed=*/2, /*crash_prob=*/0.3);
  record_pattern(adv, 60);
  EXPECT_EQ(adv.announced().size(), 3);
}

TEST(AdversaryStats, CrashAnnouncementsCanBePartialInTheCrashRound) {
  // The essence of a crash: seen by some, missed by others, in one round.
  bool partial = false;
  for (std::uint64_t seed = 0; seed < 40 && !partial; ++seed) {
    CrashAdversary adv(6, 2, seed, 0.5);
    FaultPattern p = record_pattern(adv, 6);
    for (Round r = 1; r <= p.rounds(); ++r) {
      const ProcessSet u = p.round_union(r);
      const ProcessSet x = p.round_intersection(r);
      partial = partial || !(u - x).empty();
    }
  }
  EXPECT_TRUE(partial);
}

TEST(AdversaryStats, SnapshotBlocksVaryInSize) {
  SnapshotAdversary adv(8, 4, /*seed=*/9);
  std::set<int> first_miss_sizes;
  for (int r = 0; r < 100; ++r) {
    RoundFaults round = record_pattern(adv, 1).round(1);
    // The largest D in the chain = misses of the first block's members.
    int largest = 0;
    for (const ProcessSet& d : round) largest = std::max(largest, d.size());
    first_miss_sizes.insert(largest);
  }
  EXPECT_GE(first_miss_sizes.size(), 3u)
      << "partitions should vary, not repeat one shape";
  for (int s : first_miss_sizes) EXPECT_LE(s, 4);
}

TEST(AdversaryStats, SwmrExemptProcessRotates) {
  SwmrAdversary adv(6, 2, /*seed=*/13);
  ProcessSet ever_exempt(6);
  for (int r = 0; r < 100; ++r) {
    RoundFaults round = record_pattern(adv, 1).round(1);
    const ProcessSet announced = union_over(round);
    // Exempt processes this round:
    ever_exempt |= announced.complement();
  }
  EXPECT_EQ(ever_exempt, ProcessSet::all(6))
      << "every process should get its turn at being universally heard";
}

TEST(AdversaryStats, KUncertaintyUsesPartialAnnouncements) {
  KUncertaintyAdversary adv(8, 3, /*seed=*/21);
  int partial_rounds = 0;
  const int rounds = 200;
  for (int r = 0; r < rounds; ++r) {
    RoundFaults round = record_pattern(adv, 1).round(1);
    const ProcessSet diff = union_over(round) - intersection_over(round);
    partial_rounds += !diff.empty();
  }
  EXPECT_GT(partial_rounds, rounds / 4);
}

TEST(AdversaryStats, EqualAdversaryCoversManySets) {
  EqualAdversary adv(6, /*seed=*/31, /*miss_prob=*/0.4);
  std::set<std::uint64_t> seen;
  for (int r = 0; r < 200; ++r) {
    seen.insert(record_pattern(adv, 1).d(0, 1).bits());
  }
  EXPECT_GE(seen.size(), 15u);
}

TEST(AdversaryStats, ImmortalAdversaryAnnouncesEveryoneElse) {
  ImmortalAdversary adv(6, /*seed=*/3, /*immortal=*/2);
  FaultPattern p = record_pattern(adv, 60);
  EXPECT_EQ(p.cumulative_union(), ProcessSet::all(6).without(2));
}

}  // namespace
}  // namespace rrfd::core
