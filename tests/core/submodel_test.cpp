// The submodel lattice of Section 2, decided exactly by exhaustive
// pattern enumeration for small systems.
#include "core/submodel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <latch>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/adversaries.h"
#include "core/canonical_roots.h"
#include "core/pattern_io.h"
#include "core/predicates.h"
#include "core/words.h"
#include "evaluator_conformance.h"

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
// Canonical-root tables (core/canonical_roots.h)
// ---------------------------------------------------------------------------

/// First round k's D(i,1) words: digit i of k in base 2^n - 1, process 0's
/// digit least significant.
std::vector<std::uint64_t> root_words(std::int64_t k, int n) {
  const auto v = static_cast<std::int64_t>(full_mask(n));
  std::vector<std::uint64_t> words;
  for (int i = 0; i < n; ++i, k /= v) {
    words.push_back(static_cast<std::uint64_t>(k % v));
  }
  return words;
}

std::int64_t root_count(int n) {
  std::int64_t total = 1;
  for (int i = 0; i < n; ++i) total *= static_cast<std::int64_t>(full_mask(n));
  return total;
}

TEST(SubmodelSymmetry, TableMatchesPerRootLexMinTest) {
  // The oracle renames every root by every permutation: a root is
  // canonical iff no renaming is lexicographically smaller, and its orbit
  // is n! over the renamings that fix it.
  for (int n = 1; n <= detail::kMaxSymmetryProcesses; ++n) {
    std::vector<std::vector<int>> perms;
    std::vector<int> pi(static_cast<std::size_t>(n));
    std::iota(pi.begin(), pi.end(), 0);
    do {
      perms.push_back(pi);
    } while (std::next_permutation(pi.begin(), pi.end()));

    std::vector<std::pair<std::int64_t, std::int64_t>> expected;
    for (std::int64_t k = 0; k < root_count(n); ++k) {
      const std::vector<std::uint64_t> words = root_words(k, n);
      FaultPattern root(n);
      root.append(words.data());
      bool canonical = true;
      std::int64_t fixed = 0;
      for (const auto& p : perms) {
        const FaultPattern renamed = permute(root, p);
        std::vector<std::uint64_t> image;
        for (ProcId i = 0; i < n; ++i) image.push_back(renamed.d(i, 1).bits());
        if (image < words) {
          canonical = false;
          break;
        }
        if (image == words) ++fixed;
      }
      if (canonical) {
        expected.emplace_back(
            k, static_cast<std::int64_t>(perms.size()) / fixed);
      }
    }

    const detail::CanonicalRoots& table = detail::canonical_roots(n);
    EXPECT_EQ(table.perms.size(), perms.size()) << "n=" << n;
    ASSERT_EQ(table.ascending.size(), expected.size()) << "n=" << n;
    for (std::size_t r = 0; r < expected.size(); ++r) {
      const detail::CanonicalRoot& root = table.ascending[r];
      EXPECT_EQ(root.index, expected[r].first) << "n=" << n;
      EXPECT_EQ(root.orbit, expected[r].second) << "n=" << n;
      const std::vector<std::uint64_t> words = root_words(root.index, n);
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(root.digits[static_cast<std::size_t>(i)],
                  words[static_cast<std::size_t>(i)])
            << "n=" << n << " root " << root.index;
      }
    }
  }
}

TEST(SubmodelSymmetry, TableOrbitsCoverEveryFirstRound) {
  // Canonical roots of all roots: 1 of 1, 6 of 9, 70 of 343, 2340 of
  // 50625.
  const std::vector<std::size_t> canonical = {0, 1, 6, 70, 2340};
  for (int n = 1; n <= detail::kMaxSymmetryProcesses; ++n) {
    const detail::CanonicalRoots& table = detail::canonical_roots(n);
    EXPECT_EQ(table.ascending.size(),
              canonical[static_cast<std::size_t>(n)])
        << "n=" << n;
    std::int64_t covered = 0;
    for (const auto& root : table.ascending) covered += root.orbit;
    EXPECT_EQ(covered, root_count(n)) << "n=" << n;
  }
}

TEST(SubmodelSymmetry, ShardGroupsPartitionTheTable) {
  for (int n = 1; n <= detail::kMaxSymmetryProcesses; ++n) {
    const detail::CanonicalRoots& table = detail::canonical_roots(n);
    const int shards =
        static_cast<int>(std::min<std::int64_t>(root_count(n), 256));
    ASSERT_EQ(table.shard_begin.size(), static_cast<std::size_t>(shards) + 1);
    EXPECT_EQ(table.shard_begin.front(), 0u);
    EXPECT_EQ(table.shard_begin.back(), table.by_shard.size());
    std::vector<std::int64_t> seen;
    for (int s = 0; s < shards; ++s) {
      const auto us = static_cast<std::size_t>(s);
      ASSERT_LE(table.shard_begin[us], table.shard_begin[us + 1]);
      std::int64_t previous = -1;
      for (const detail::CanonicalRoot& root : table.shard(s)) {
        EXPECT_EQ(root.index % shards, s) << "n=" << n;
        EXPECT_LT(previous, root.index) << "n=" << n;
        previous = root.index;
        seen.push_back(root.index);
      }
    }
    std::sort(seen.begin(), seen.end());
    std::vector<std::int64_t> all;
    for (const auto& root : table.ascending) all.push_back(root.index);
    EXPECT_EQ(seen, all) << "n=" << n;
  }
}

TEST(SubmodelSymmetry, ConcurrentFirstUseMatchesSerial) {
  // ctest runs each case in a fresh process, so these four checks are the
  // first to ask for the n = 4 table, and they ask at the same moment.
  const auto a = sync_crash(1);
  const auto b = sync_omission(1);
  constexpr int kThreads = 4;
  std::vector<ImplicationResult> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[static_cast<std::size_t>(t)] = implies_exhaustive(*a, *b, 4, 2);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto serial = implies_exhaustive(*a, *b, 4, 2);
  ASSERT_FALSE(serial.holds);
  ASSERT_TRUE(serial.counterexample.has_value());
  for (const auto& r : results) {
    EXPECT_EQ(r.holds, serial.holds);
    EXPECT_EQ(r.patterns_checked, serial.patterns_checked);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(*r.counterexample, *serial.counterexample);
    EXPECT_EQ(r.stats.nodes, serial.stats.nodes);
    EXPECT_EQ(r.stats.leaves, serial.stats.leaves);
    EXPECT_EQ(r.stats.pruned_subtrees, serial.stats.pruned_subtrees);
    EXPECT_EQ(r.stats.expanded_roots, serial.stats.expanded_roots);
    EXPECT_EQ(r.stats.memo_hits, serial.stats.memo_hits);
    EXPECT_EQ(r.stats.memo_misses, serial.stats.memo_misses);
    EXPECT_EQ(r.stats.memo_entries, serial.stats.memo_entries);
    EXPECT_TRUE(r.stats.symmetry_used);
  }
}

/// perms[p] of the table at n as the images pi(0), ..., pi(n - 1), read
/// off its mask map.
std::vector<std::vector<int>> perm_images(const detail::CanonicalRoots& table,
                                          int n) {
  std::vector<std::vector<int>> images;
  for (const detail::PermTable& perm : table.perms) {
    std::vector<int> pi;
    for (int i = 0; i < n; ++i) {
      pi.push_back(std::countr_zero(perm.mask_map[std::size_t{1} << i]));
    }
    images.push_back(std::move(pi));
  }
  return images;
}

/// Index of a subgroup table's packed round: digit i is bits 4i .. 4i + 3.
std::int64_t packed_index(std::uint16_t packed, int n) {
  const auto v = static_cast<std::int64_t>(full_mask(n));
  std::int64_t index = 0;
  for (int i = n - 1; i >= 0; --i) {
    index = index * v + ((packed >> (4 * i)) & 15);
  }
  return index;
}

TEST(SubmodelSymmetry, SubgroupTablesMatchAPermuteOracle) {
  // Each subgroup H of S_n has a table of the rounds that are
  // lexicographically minimal in their H-orbit. The oracle renames every
  // round by every permutation once, through permute(), and decides each
  // subgroup's canonical rounds and orbit sizes from those images.
  const std::vector<std::size_t> subgroup_count = {0, 1, 2, 6, 30};
  for (int n = 1; n <= detail::kMaxSymmetryProcesses; ++n) {
    const detail::CanonicalRoots& table = detail::canonical_roots(n);
    ASSERT_EQ(table.subgroups.size(),
              subgroup_count[static_cast<std::size_t>(n)])
        << "n=" << n;
    const std::vector<std::vector<int>> images = perm_images(table, n);
    std::vector<int> identity(static_cast<std::size_t>(n));
    std::iota(identity.begin(), identity.end(), 0);
    ASSERT_EQ(images.front(), identity);
    EXPECT_EQ(table.subgroups.front(), 1u) << "n=" << n;
    EXPECT_EQ(table.subgroups.back(),
              (detail::PermMask{1} << images.size()) - 1)
        << "n=" << n;
    // product(a, b): the index of perms[a] after perms[b].
    const auto product = [&](std::size_t a, std::size_t b) {
      std::vector<int> ab;
      for (int i = 0; i < n; ++i) {
        ab.push_back(images[a][static_cast<std::size_t>(
            images[b][static_cast<std::size_t>(i)])]);
      }
      return static_cast<std::size_t>(
          std::find(images.begin(), images.end(), ab) - images.begin());
    };
    // Every mask is a distinct subgroup, closed under composition, and
    // generates itself.
    for (std::size_t s = 0; s < table.subgroups.size(); ++s) {
      const detail::PermMask h = table.subgroups[s];
      if (s > 0) {
        EXPECT_LT(table.subgroups[s - 1], h) << "n=" << n;
      }
      EXPECT_EQ(table.generated(h), s) << "n=" << n;
      for (std::size_t a = 0; a < images.size(); ++a) {
        for (std::size_t b = 0; b < images.size(); ++b) {
          if (((h >> a) & 1) == 0 || ((h >> b) & 1) == 0) continue;
          EXPECT_EQ((h >> product(a, b)) & 1, 1u)
              << "n=" << n << " subgroup " << s;
        }
      }
    }
    // One renaming generates its powers.
    for (std::size_t a = 0; a < images.size(); ++a) {
      detail::PermMask powers = 1;
      for (std::size_t x = a; x != 0; x = product(x, a)) {
        powers |= detail::PermMask{1} << x;
      }
      EXPECT_EQ(table.subgroups[table.generated(1u | detail::PermMask{1} << a)],
                powers)
          << "n=" << n << " renaming " << a;
    }

    // lex[p][k]: round k renamed by perms[p], read as a number whose
    // digits are its D(0), ..., D(n - 1) words, D(0) most significant,
    // so that comparing numbers compares the words lexicographically.
    const std::int64_t total = root_count(n);
    const auto v = static_cast<std::int64_t>(full_mask(n));
    std::vector<std::vector<std::int64_t>> lex(
        images.size(),
        std::vector<std::int64_t>(static_cast<std::size_t>(total)));
    for (std::int64_t k = 0; k < total; ++k) {
      const std::vector<std::uint64_t> words = root_words(k, n);
      FaultPattern root(n);
      root.append(words.data());
      for (std::size_t p = 0; p < images.size(); ++p) {
        const FaultPattern renamed = permute(root, images[p]);
        std::int64_t number = 0;
        for (ProcId i = 0; i < n; ++i) {
          number =
              number * v + static_cast<std::int64_t>(renamed.d(i, 1).bits());
        }
        lex[p][static_cast<std::size_t>(k)] = number;
      }
    }

    for (std::size_t s = 0; s < table.subgroups.size(); ++s) {
      const detail::PermMask h = table.subgroups[s];
      std::vector<std::pair<std::int64_t, std::int64_t>> expected;
      for (std::int64_t k = 0; k < total; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        bool canonical = true;
        std::int64_t fixed = 0;
        for (std::size_t p = 0; p < images.size() && canonical; ++p) {
          if (((h >> p) & 1) == 0) continue;
          canonical = lex[p][uk] >= lex[0][uk];
          if (lex[p][uk] == lex[0][uk]) ++fixed;
        }
        if (canonical) expected.emplace_back(k, std::popcount(h) / fixed);
      }
      const detail::SubgroupRounds& got = detail::subgroup_rounds(n, s);
      const std::string what = "n=" + std::to_string(n) + " subgroup " +
                               std::to_string(s);
      ASSERT_EQ(got.rounds.size(), expected.size()) << what;
      ASSERT_EQ(got.orbits.size(), expected.size()) << what;
      std::int64_t covered = 0;
      for (std::size_t r = 0; r < expected.size(); ++r) {
        EXPECT_EQ(packed_index(got.rounds[r], n), expected[r].first) << what;
        EXPECT_EQ(got.orbits[r], expected[r].second) << what;
        covered += got.orbits[r];
      }
      EXPECT_EQ(covered, total) << what;
    }
  }
}

TEST(SubmodelSymmetry, ConcurrentFirstUseOfSubgroupTablesMatchesSerial) {
  // ctest runs each case in a fresh process, so these four threads are the
  // first to ask for the n = 4 subgroup tables, and they ask at the same
  // moment: each runs the E21 check, whose seed pass builds the tables of
  // its states' groups, then asks for every table in its own order.
  const ImmortalProcess immortal;
  const CumulativeFaultBound bound(3);
  const std::size_t count = detail::canonical_roots(4).subgroups.size();
  constexpr int kThreads = 4;
  std::vector<ImplicationResult> results(kThreads);
  std::vector<std::vector<const detail::SubgroupRounds*>> seen(
      kThreads, std::vector<const detail::SubgroupRounds*>(count));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const auto ut = static_cast<std::size_t>(t);
      results[ut] = implies_exhaustive(immortal, bound, 4, 2);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t s = (i + 7 * ut) % count;
        seen[ut][s] = &detail::subgroup_rounds(4, s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto serial = implies_exhaustive(immortal, bound, 4, 2);
  ASSERT_TRUE(serial.holds);
  for (const auto& r : results) {
    EXPECT_EQ(r.holds, serial.holds);
    EXPECT_EQ(r.patterns_checked, serial.patterns_checked);
    EXPECT_EQ(r.stats.nodes, serial.stats.nodes);
    EXPECT_EQ(r.stats.leaves, serial.stats.leaves);
    EXPECT_EQ(r.stats.pruned_subtrees, serial.stats.pruned_subtrees);
    EXPECT_EQ(r.stats.memo_hits, serial.stats.memo_hits);
    EXPECT_EQ(r.stats.memo_misses, serial.stats.memo_misses);
    EXPECT_EQ(r.stats.memo_entries, serial.stats.memo_entries);
  }
  for (std::size_t s = 0; s < count; ++s) {
    const detail::SubgroupRounds& table = detail::subgroup_rounds(4, s);
    std::int64_t covered = 0;
    for (const std::uint8_t orbit : table.orbits) covered += orbit;
    EXPECT_EQ(covered, root_count(4)) << "subgroup " << s;
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][s], &table)
          << "subgroup " << s;
    }
  }
  // The whole group's canonical rounds are the canonical first rounds.
  const detail::SubgroupRounds& full = detail::subgroup_rounds(4, count - 1);
  const auto& ascending = detail::canonical_roots(4).ascending;
  ASSERT_EQ(full.rounds.size(), ascending.size());
  for (std::size_t r = 0; r < ascending.size(); ++r) {
    EXPECT_EQ(packed_index(full.rounds[r], 4), ascending[r].index);
    EXPECT_EQ(full.orbits[r], ascending[r].orbit);
  }
}

/// Delegates to a predicate and counts the evaluators the engine builds.
class CountingPredicate final : public Predicate {
 public:
  explicit CountingPredicate(PredicatePtr inner) : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::string description() const override { return inner_->description(); }
  bool holds(const FaultPattern& p) const override { return inner_->holds(p); }
  std::unique_ptr<StepEvaluator> evaluator() const override {
    ++evaluators;
    return inner_->evaluator();
  }
  bool prunable() const override { return inner_->prunable(); }
  bool symmetric() const override { return inner_->symmetric(); }

  mutable int evaluators = 0;

 private:
  PredicatePtr inner_;
};

TEST(SubmodelSymmetry, KOnAboveFourProcessesThrowsBeforeEnumerating) {
  const CountingPredicate a(sync_omission(1));
  const CountingPredicate b(equal_announcements());
  EnumOptions on;
  on.symmetry = Symmetry::kOn;
  EXPECT_THROW(implies_exhaustive(a, b, 5, 1, on), ContractViolation);
  EXPECT_EQ(a.evaluators + b.evaluators, 0);
}

TEST(SubmodelSymmetry, KAutoAboveFourProcessesAnswersUnreduced) {
  // Shard 0 of 256 expands roots 0 and 256 first. Root 256 has
  // D(0) = D(1) = {3} and the other sets empty: one omission fault, but
  // unequal announcements. The serial runner then skips every later
  // shard.
  const auto r =
      implies_exhaustive(*sync_omission(1), *equal_announcements(), 5, 1);
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.stats.symmetry_used);
  EXPECT_EQ(r.stats.expanded_roots, 2);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_EQ(pattern_to_text(*r.counterexample), "n=5\n{3},{3},{},{},{}\n");
}

/// Claims symmetry falsely: holds() accepts everything, but the evaluator
/// promises kSatisfiedForever only when D(0,1) is not empty, so a renamed
/// first round can get a different verdict.
class ProcessZeroPromise final : public Predicate {
 public:
  std::string name() const override { return "process-0-promise"; }
  std::string description() const override { return "always holds"; }
  bool holds(const FaultPattern&) const override { return true; }
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
  std::unique_ptr<StepEvaluator> evaluator() const override {
    class Eval final : public StepEvaluator {
     public:
      void begin(int, Round) override { depth_ = 0; }
      StepVerdict push_round(const std::uint64_t* d) override {
        return ++depth_ == 1 && d[0] != 0 ? StepVerdict::kSatisfiedForever
                                          : StepVerdict::kSatisfiedSoFar;
      }
      void pop_round() override { --depth_; }
      bool state_bytes(std::vector<std::uint8_t>& out) const override {
        statekey::append_u8(out, depth_ == 0 ? 0 : 1);
        return true;
      }

     private:
      int depth_ = 0;
    };
    return std::make_unique<Eval>();
  }
};

TEST(SubmodelSymmetry, BrokenSymmetryClaimFailsLoudly) {
  // The seed pass shares one subtree per renaming class only because
  // renamed first rounds get equal verdicts; it checks that rather than
  // report counts that depend on which member it explored.
  const CumulativeFaultBound bound(1);
  const ProcessZeroPromise liar;
  try {
    implies_exhaustive(bound, liar, 3, 2);
    ADD_FAILURE() << "no ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("renamed first round"),
              std::string::npos)
        << e.what();
  }
  EnumOptions off;
  off.symmetry = Symmetry::kOff;
  EXPECT_TRUE(implies_exhaustive(bound, liar, 3, 2, off).holds);
}

/// Claims symmetry falsely below the first round: its second-round
/// promise depends on D(0,2) alone, so a renamed two-round prefix can get
/// a different verdict while every renamed first round gets the same one.
class ProcessZeroSecondRoundPromise final : public Predicate {
 public:
  std::string name() const override { return "process-0-second-round"; }
  std::string description() const override { return "always holds"; }
  bool holds(const FaultPattern&) const override { return true; }
  bool prunable() const override { return true; }
  bool symmetric() const override { return true; }
  std::unique_ptr<StepEvaluator> evaluator() const override {
    class Eval final : public StepEvaluator {
     public:
      void begin(int, Round) override { depth_ = 0; }
      StepVerdict push_round(const std::uint64_t* d) override {
        return ++depth_ == 2 && d[0] != 0 ? StepVerdict::kSatisfiedForever
                                          : StepVerdict::kSatisfiedSoFar;
      }
      void pop_round() override { --depth_; }
      bool state_bytes(std::vector<std::uint8_t>& out) const override {
        statekey::append_u8(out, static_cast<std::uint8_t>(depth_));
        return true;
      }

     private:
      int depth_ = 0;
    };
    return std::make_unique<Eval>();
  }
};

TEST(SubmodelSymmetry, BrokenSymmetryBelowTheFirstRoundFailsLoudly) {
  // The seed pass also shares subtrees between renamed deeper states, so
  // it checks every renamed prefix's verdicts, not only the first round's.
  const CumulativeFaultBound bound(1);
  const ProcessZeroSecondRoundPromise liar;
  try {
    implies_exhaustive(bound, liar, 3, 3);
    ADD_FAILURE() << "no ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("below its first round"),
              std::string::npos)
        << e.what();
  }
  EnumOptions off;
  off.symmetry = Symmetry::kOff;
  EXPECT_TRUE(implies_exhaustive(bound, liar, 3, 3, off).holds);
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
