// Differential oracle suite: the word cores held against independent
// references (DESIGN.md "Word arenas").
//
// Three layers, one oracle each:
//  * evaluators: every push_round verdict of a seeded random push/pop
//    walk must equal the predicate's set-algebra holds() on the pushed
//    prefix, for the zoo and for custom predicates on the whole-pattern
//    fallback;
//  * submodel search: every verdict must match the naive
//    enumerate_patterns + holds() sweep (the "paths" the test names
//    compare are the DFS and that sweep), decide the whole space when the
//    implication holds, and otherwise return a counterexample holds()
//    confirms -- under both symmetry settings and under a threaded shard
//    runner (this suite is in the TSan CI net for that reason);
//  * engine: randomized configurations (n, adversary, seed, horizon,
//    stop rule) must give byte-identical RunResults and trace streams
//    whether FloodMin absorbs a round through its batch hook or per
//    process.
//
// engine_equivalence_test.cpp covers the engine on a fixed grid; this
// suite adds the randomized sweep and the evaluator/submodel layers.
#include "core/submodel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adversaries.h"
#include "core/predicates.h"
#include "evaluator_conformance.h"
#include "per_process_flood_min.h"
#include "sweep/submodel_parallel.h"
#include "util/rng.h"
#include "util/str.h"

namespace rrfd::core {
namespace {

TEST(DifferentialOracle, EvaluatorWordAndSetVerdictsMatchOnRandomWalks) {
  // Every word-core verdict against the set-algebra holds() on the pushed
  // prefix. Any divergence pins the word core of that predicate.
  for (int n : {1, 2, 3, 5, 8, 16, 33, 63, 64}) {
    for (std::uint64_t seed : {1u, 77u, 4242u}) {
      for (const NamedPredicate& entry : zoo(n)) {
        SCOPED_TRACE(entry.name);
        Rng rng(seed * 1000003u + static_cast<std::uint64_t>(n));
        check_random_walk(*entry.pred, n, rng, /*horizon=*/12, /*steps=*/64,
                          /*retract_terminal=*/true);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Custom predicates: a predicate that overrides only holds() gets the
// whole-pattern fallback evaluator, which rebuilds the prefix from the
// pushed words and must report exact verdicts at every depth.
// ---------------------------------------------------------------------------

/// Not prefix-closed: the parity of total suspicions flips per miss, so a
/// violated prefix recovers one push later.
class EvenTotalMisses final : public Predicate {
 public:
  std::string name() const override { return "even-total-misses"; }
  std::string description() const override {
    return "sum over rounds and processes of |D(i,r)| is even";
  }
  bool holds(const FaultPattern& p) const override {
    int total = 0;
    for (Round r = 1; r <= p.rounds(); ++r) {
      for (ProcId i = 0; i < p.n(); ++i) total += p.d(i, r).size();
    }
    return total % 2 == 0;
  }
};

/// Asymmetric: process 0 is distinguished, so renaming breaks it. Also
/// prefix-closed in truth but deliberately left with default traits.
class Pinned final : public Predicate {
 public:
  std::string name() const override { return "pinned-zero"; }
  std::string description() const override {
    return "process 0 is never suspected";
  }
  bool holds(const FaultPattern& p) const override {
    for (Round r = 1; r <= p.rounds(); ++r) {
      if (p.round_union(r).contains(0)) return false;
    }
    return true;
  }
};

TEST(DifferentialOracle, DefaultWordBridgeMatchesSetPathOnCustomPredicates) {
  // Same seeded walk over predicates that never wrote a word core. The
  // fallback evaluator stays exact even past violations, so the walk
  // keeps descending below them, as the DFS does under non-prunable
  // predicates, including verdict streams that recover.
  for (int n : {1, 2, 3, 5, 16, 63, 64}) {
    for (std::uint64_t seed : {7u, 5151u}) {
      for (const PredicatePtr& pred :
           {PredicatePtr(std::make_shared<EvenTotalMisses>()),
            PredicatePtr(std::make_shared<Pinned>())}) {
        Rng rng(seed * 1000003u + static_cast<std::uint64_t>(n));
        check_random_walk(*pred, n, rng, /*horizon=*/10, /*steps=*/64,
                          /*retract_terminal=*/false);
      }
    }
  }
}

void expect_same_search(const ImplicationResult& x,
                        const ImplicationResult& y, const std::string& what) {
  EXPECT_EQ(x.holds, y.holds) << what;
  EXPECT_EQ(x.patterns_checked, y.patterns_checked) << what;
  ASSERT_EQ(x.counterexample.has_value(), y.counterexample.has_value())
      << what;
  if (x.counterexample.has_value()) {
    EXPECT_EQ(*x.counterexample, *y.counterexample) << what;
  }
  EXPECT_EQ(x.stats.nodes, y.stats.nodes) << what;
  EXPECT_EQ(x.stats.leaves, y.stats.leaves) << what;
  EXPECT_EQ(x.stats.pruned_subtrees, y.stats.pruned_subtrees) << what;
  EXPECT_EQ(x.stats.patterns_decided, y.stats.patterns_decided) << what;
  EXPECT_EQ(x.stats.expanded_roots, y.stats.expanded_roots) << what;
  EXPECT_EQ(x.stats.total_roots, y.stats.total_roots) << what;
  EXPECT_EQ(x.stats.symmetry_used, y.stats.symmetry_used) << what;
  EXPECT_EQ(x.stats.shards, y.stats.shards) << what;
}

/// The naive oracle: one holds() verdict per pattern of the
/// enumerate_patterns odometer, per predicate, in odometer order.
std::vector<std::vector<char>> naive_verdicts(
    const std::vector<NamedPredicate>& preds, int n, Round rounds) {
  std::vector<std::vector<char>> sat(preds.size());
  enumerate_patterns(n, rounds, [&](const FaultPattern& p) {
    for (std::size_t k = 0; k < preds.size(); ++k) {
      sat[k].push_back(preds[k].pred->holds(p) ? 1 : 0);
    }
    return true;
  });
  return sat;
}

/// The DFS verdict on a => b must be the naive one; a holding implication
/// must decide the whole space, and a refutation must carry a
/// counterexample that holds() confirms.
void expect_search_matches_naive(const NamedPredicate& a,
                                 const std::vector<char>& sat_a,
                                 const NamedPredicate& b,
                                 const std::vector<char>& sat_b, int n,
                                 Round rounds, const EnumOptions& options) {
  const std::string what =
      a.name + " => " + b.name +
      (options.symmetry == Symmetry::kOff ? " (sym off)" : " (sym auto)");
  bool naive = true;
  for (std::size_t k = 0; k < sat_a.size(); ++k) {
    naive = naive && (sat_a[k] == 0 || sat_b[k] != 0);
  }
  const ImplicationResult r =
      implies_exhaustive(*a.pred, *b.pred, n, rounds, options);
  EXPECT_EQ(r.holds, naive) << what;
  if (r.holds) {
    EXPECT_EQ(r.stats.patterns_decided,
              static_cast<std::int64_t>(sat_a.size()))
        << what;
  } else {
    ASSERT_TRUE(r.counterexample.has_value()) << what;
    EXPECT_TRUE(a.pred->holds(*r.counterexample)) << what;
    EXPECT_FALSE(b.pred->holds(*r.counterexample)) << what;
  }
}

TEST(DifferentialOracle, SubmodelSearchMatchesAcrossPathsOnCustomPredicates) {
  // Custom predicates run on the whole-pattern fallback (default traits:
  // no pruning, no symmetry folding). The two paths to each verdict --
  // the DFS and the naive sweep of all 7^6 patterns at n=3, rounds=2 --
  // must agree, under both symmetry settings.
  const int n = 3;
  const Round rounds = 2;
  const std::vector<NamedPredicate> preds = {
      {"even_total_misses", std::make_shared<EvenTotalMisses>()},
      {"pinned_zero", std::make_shared<Pinned>()},
      {"never_faulty", std::make_shared<NeverFaulty>()}};
  const std::vector<std::vector<char>> sat = naive_verdicts(preds, n, rounds);
  const std::vector<std::pair<std::size_t, std::size_t>> pairs = {
      {0, 2}, {2, 0}, {1, 0}, {0, 1}, {1, 2}, {2, 1}};
  for (Symmetry symmetry : {Symmetry::kAuto, Symmetry::kOff}) {
    EnumOptions options;
    options.symmetry = symmetry;
    for (const auto& [a, b] : pairs) {
      expect_search_matches_naive(preds[a], sat[a], preds[b], sat[b], n,
                                  rounds, options);
    }
  }
}

TEST(DifferentialOracle, SubmodelSearchMatchesAcrossPathsAndSymmetry) {
  // Every ordered zoo pair at n=3, rounds=2, under both symmetry
  // settings: the DFS must reproduce the naive sweep's verdict. Both
  // outcomes (holds and refuted-with-counterexample) occur in this grid;
  // neither direction is asserted, only agreement with the sweep.
  const int n = 3;
  const Round rounds = 2;
  const std::vector<NamedPredicate> preds = zoo(n);
  const std::vector<std::vector<char>> sat = naive_verdicts(preds, n, rounds);
  for (Symmetry symmetry : {Symmetry::kAuto, Symmetry::kOff}) {
    EnumOptions options;
    options.symmetry = symmetry;
    for (std::size_t a = 0; a < preds.size(); ++a) {
      for (std::size_t b = 0; b < preds.size(); ++b) {
        expect_search_matches_naive(preds[a], sat[a], preds[b], sat[b], n,
                                    rounds, options);
      }
    }
  }
}

TEST(DifferentialOracle, EquivalenceCheckMatchesAcrossPaths) {
  // The equivalence wrapper is the two implications, counter for counter,
  // and its verdict is the naive one: identical holds() columns.
  const int n = 3;
  const Round rounds = 2;
  const std::vector<NamedPredicate> preds = {
      {"swmr_shared_memory", swmr_shared_memory(1)},
      {"swmr_shared_memory_alt", swmr_shared_memory_alt(1)}};
  const std::vector<std::vector<char>> sat = naive_verdicts(preds, n, rounds);
  const Predicate& a = *preds[0].pred;
  const Predicate& b = *preds[1].pred;
  for (Symmetry symmetry : {Symmetry::kAuto, Symmetry::kOff}) {
    EnumOptions options;
    options.symmetry = symmetry;
    const EquivalenceResult eq =
        equivalent_exhaustive(a, b, n, rounds, options);
    EXPECT_EQ(eq.equivalent(), sat[0] == sat[1]);
    expect_same_search(eq.forward,
                       implies_exhaustive(a, b, n, rounds, options),
                       "swmr forward");
    expect_same_search(eq.backward,
                       implies_exhaustive(b, a, n, rounds, options),
                       "swmr backward");
    expect_search_matches_naive(preds[0], sat[0], preds[1], sat[1], n, rounds,
                                options);
    expect_search_matches_naive(preds[1], sat[1], preds[0], sat[0], n, rounds,
                                options);
  }
}

TEST(DifferentialOracle, SubmodelSearchMatchesUnderThreadedRunner) {
  // The pool-backed shard runner (the TSan target) must reproduce the
  // serial search counter for counter.
  const int n = 3;
  const Round rounds = 2;
  EnumOptions threaded;
  threaded.runner = sweep::shard_runner(4);
  const EnumOptions serial;
  for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"sync_crash", "sync_omission"},
           {"sync_omission", "sync_crash"},
           {"atomic_snapshot", "async_message_passing"},
           {"equal_announcements", "detector_s"}}) {
    PredicatePtr pa;
    PredicatePtr pb;
    for (const NamedPredicate& entry : zoo(n)) {
      if (entry.name == a) pa = entry.pred;
      if (entry.name == b) pb = entry.pred;
    }
    ASSERT_TRUE(pa && pb) << a << " => " << b;
    expect_same_search(implies_exhaustive(*pa, *pb, n, rounds, threaded),
                       implies_exhaustive(*pa, *pb, n, rounds, serial),
                       a + " => " + b + " (threaded vs serial)");
  }
}

std::unique_ptr<Adversary> random_adversary(Rng& rng, int n,
                                            std::uint64_t seed) {
  const int f =
      n > 2 ? 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)))
            : 1;
  switch (rng.below(9)) {
    case 0: return std::make_unique<BenignAdversary>(n);
    case 1: return std::make_unique<OmissionAdversary>(n, f, seed);
    case 2: return std::make_unique<CrashAdversary>(n, f, seed);
    case 3: return std::make_unique<AsyncAdversary>(n, f, seed);
    case 4: return std::make_unique<SwmrAdversary>(n, f, seed);
    case 5: return std::make_unique<SnapshotAdversary>(n, f, seed);
    case 6: return std::make_unique<KUncertaintyAdversary>(n, f, seed);
    case 7: return std::make_unique<ImmortalAdversary>(n, seed);
    default: return std::make_unique<EqualAdversary>(n, seed);
  }
}

TEST(DifferentialOracle, EngineRunsMatchAcrossPathsOnRandomConfigs) {
  // Randomized engine configurations: everything observable -- the
  // RunResult (pattern, rounds, decisions, all_decided) and the full
  // trace event stream -- must be identical whether FloodMin advances
  // through its batch hook or through per-process absorb() calls.
  Rng rng(0xd1ffu);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(63));
    const std::uint64_t seed = rng();
    std::unique_ptr<Adversary> adv = random_adversary(rng, n, seed);
    EngineOptions options;
    options.max_rounds = 1 + static_cast<Round>(rng.below(10));
    options.stop_when_all_decided = rng.chance(0.5);
    const Round decide_round =
        1 + static_cast<Round>(rng.below(
                static_cast<std::uint64_t>(options.max_rounds)));
    std::vector<int> inputs;
    for (ProcId i = 0; i < n; ++i) inputs.push_back((i * 7 + trial) % n);
    SCOPED_TRACE(cat("trial ", trial));
    expect_batch_matches_per_process(inputs, decide_round, *adv, options);
  }
}

}  // namespace
}  // namespace rrfd::core
