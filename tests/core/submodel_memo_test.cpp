// Suffix-count memoization held against the plain DFS and the naive
// odometer (DESIGN.md "Suffix memoization").
//
// The memo contract is that transposition tables are *unobservable*
// except through the memo_* counters: every other statistic, the holds
// verdict, the counterexample, and the budget behaviour must be exactly
// those of the unmemoized search, under both symmetry modes, at any
// thread count. These suites enforce that
// differentially across the whole zoo and the compiled Heard-Of catalog,
// and separately test the state_bytes canonicality contract the tables
// rest on: equal keys must imply identical verdict behaviour under any
// common suffix, including across evaluator instances and across
// prefixes of different depths.
#include "core/submodel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern_io.h"
#include "core/predicates.h"
#include "core/words.h"
#include "evaluator_conformance.h"
#include "ho/catalog.h"
#include "ho/compile.h"
#include "sweep/submodel_parallel.h"
#include "util/check.h"
#include "util/rng.h"

namespace rrfd::core {
namespace {

EnumOptions opts_with(Memo memo, Symmetry sym, int threads = 0) {
  EnumOptions o;
  o.memo = memo;
  o.symmetry = sym;
  if (threads > 0) o.runner = sweep::shard_runner(threads);
  return o;
}

/// Full-result equality, including every statistic. Memoization promises
/// that everything except the memo_* counters matches the unmemoized
/// run; when `include_memo` the counters themselves must match too
/// (memo-vs-memo comparisons across thread counts).
void expect_same(const ImplicationResult& ref, const ImplicationResult& got,
                 bool include_memo, const std::string& what) {
  EXPECT_EQ(ref.holds, got.holds) << what;
  EXPECT_EQ(ref.patterns_checked, got.patterns_checked) << what;
  ASSERT_EQ(ref.counterexample.has_value(), got.counterexample.has_value())
      << what;
  if (ref.counterexample.has_value()) {
    EXPECT_EQ(*ref.counterexample, *got.counterexample) << what;
  }
  EXPECT_EQ(ref.stats.nodes, got.stats.nodes) << what;
  EXPECT_EQ(ref.stats.leaves, got.stats.leaves) << what;
  EXPECT_EQ(ref.stats.pruned_subtrees, got.stats.pruned_subtrees) << what;
  EXPECT_EQ(ref.stats.patterns_decided, got.stats.patterns_decided) << what;
  EXPECT_EQ(ref.stats.expanded_roots, got.stats.expanded_roots) << what;
  EXPECT_EQ(ref.stats.total_roots, got.stats.total_roots) << what;
  EXPECT_EQ(ref.stats.symmetry_used, got.stats.symmetry_used) << what;
  if (include_memo) {
    EXPECT_EQ(ref.stats.memo_hits, got.stats.memo_hits) << what;
    EXPECT_EQ(ref.stats.memo_misses, got.stats.memo_misses) << what;
    EXPECT_EQ(ref.stats.memo_entries, got.stats.memo_entries) << what;
  }
}

TEST(SubmodelMemo, MatchesPlainDfsAcrossZooPairs) {
  // Every ordered pair from a zoo slice, n = 3, 2 rounds: memo-on must
  // reproduce the memo-off run stat-for-stat under both symmetry modes.
  // The slice keeps the pair sweep fast but spans the distinct evaluator
  // families (per-round cores, cumulative masks, conjunctions, the
  // immortal/cumulative pair).
  const auto all = zoo(3);
  const std::vector<std::size_t> picks = {0, 2, 5, 6, 7};
  for (const std::size_t ia : picks) {
    for (const std::size_t ib : picks) {
      for (const Symmetry sym : {Symmetry::kOff, Symmetry::kAuto}) {
        const auto off = implies_exhaustive(*all[ia].pred, *all[ib].pred, 3,
                                            2, opts_with(Memo::kOff, sym));
        const auto on = implies_exhaustive(*all[ia].pred, *all[ib].pred, 3,
                                           2, opts_with(Memo::kAuto, sym));
        expect_same(off, on, /*include_memo=*/false,
                    all[ia].name + " => " + all[ib].name);
        EXPECT_EQ(off.stats.memo_hits, 0);
        EXPECT_EQ(off.stats.memo_entries, 0);
      }
    }
  }
}

TEST(SubmodelMemo, MatchesPlainDfsAtThreeRounds) {
  // Deeper tables: n = 2 keeps 3 rounds cheap enough to sweep the whole
  // zoo pairwise. Three rounds exercise entries at two distinct
  // remaining-round levels plus the seed table.
  const auto all = zoo(2);
  for (const auto& a : all) {
    for (const auto& b : all) {
      for (const Symmetry sym : {Symmetry::kOff, Symmetry::kAuto}) {
        const auto off = implies_exhaustive(
            *a.pred, *b.pred, 2, 3, opts_with(Memo::kOff, sym));
        const auto on = implies_exhaustive(
            *a.pred, *b.pred, 2, 3, opts_with(Memo::kAuto, sym));
        expect_same(off, on, /*include_memo=*/false,
                    a.name + " => " + b.name + " r=3");
      }
    }
  }
}

TEST(SubmodelMemo, MatchesPlainDfsAtThreeRoundsN3) {
  // At n = 2, S2 leaves the seed pass's depth-2 groups trivial; n = 3 is
  // the smallest size where a depth-2 state's renaming group is not, so
  // the seed pass walks canonical rounds below depth 2 as well. A zoo
  // slice plus two compiled Heard-Of specs, every ordered pair.
  const auto all = zoo(3);
  std::vector<NamedPredicate> preds = {all[0], all[2], all[5], all[6],
                                       all[7]};
  preds.push_back({"immortal", std::make_shared<ImmortalProcess>()});
  preds.push_back({"cumulative_2", std::make_shared<CumulativeFaultBound>(2)});
  preds.push_back({"ho_loss_cap(1)", ho::compile_text("loss_cap(1)")});
  preds.push_back({"ho_all(self_delivery(),faulty(1))",
                   ho::compile_text("all(self_delivery(),faulty(1))")});
  for (const auto& a : preds) {
    for (const auto& b : preds) {
      const auto off = implies_exhaustive(
          *a.pred, *b.pred, 3, 3, opts_with(Memo::kOff, Symmetry::kAuto));
      const auto on = implies_exhaustive(
          *a.pred, *b.pred, 3, 3, opts_with(Memo::kAuto, Symmetry::kAuto));
      expect_same(off, on, /*include_memo=*/false,
                  a.name + " => " + b.name + " n=3 r=3");
    }
  }
}

TEST(SubmodelMemo, MatchesPlainDfsAcrossStandardCatalog) {
  // The compiled Heard-Of evaluators key through the structural fold in
  // ho/compile.cpp -- a different state_bytes implementation family than
  // the zoo's, so they get their own differential sweep.
  const auto catalog = ho::standard_catalog();
  ASSERT_FALSE(catalog.empty());
  const auto ref = detector_s();
  for (const auto& m : catalog) {
    const auto off = implies_exhaustive(
        *m.pred, *ref, 3, 2, opts_with(Memo::kOff, Symmetry::kAuto));
    const auto on = implies_exhaustive(
        *m.pred, *ref, 3, 2, opts_with(Memo::kAuto, Symmetry::kAuto));
    expect_same(off, on, /*include_memo=*/false, m.name + " => detector_s");
    const auto off_b = implies_exhaustive(
        *ref, *m.pred, 3, 2, opts_with(Memo::kOff, Symmetry::kAuto));
    const auto on_b = implies_exhaustive(
        *ref, *m.pred, 3, 2, opts_with(Memo::kAuto, Symmetry::kAuto));
    expect_same(off_b, on_b, /*include_memo=*/false,
                "detector_s => " + m.name);
  }
}

TEST(SubmodelMemo, MatchesNaiveOdometer) {
  // Ground truth below both engines: the unpruned odometer. The engine's
  // holds verdict must agree with a literal scan for counterexamples,
  // and a holding implication must decide the entire space.
  struct Case {
    PredicatePtr a;
    PredicatePtr b;
    int n;
    Round rounds;
  };
  const std::vector<Case> cases = {
      {std::make_shared<ImmortalProcess>(),
       std::make_shared<CumulativeFaultBound>(2), 3, 2},
      {k_uncertainty(2), k_uncertainty(1), 2, 3},
      {sync_omission(1), async_message_passing(1), 2, 3},
  };
  for (const auto& c : cases) {
    std::int64_t violations = 0;
    const std::int64_t space = enumerate_patterns(
        c.n, c.rounds, [&](const FaultPattern& p) {
          if (c.a->holds(p) && !c.b->holds(p)) ++violations;
          return true;
        });
    for (const Memo memo : {Memo::kOff, Memo::kAuto}) {
      const auto r = implies_exhaustive(*c.a, *c.b, c.n, c.rounds,
                                        opts_with(memo, Symmetry::kOff));
      EXPECT_EQ(r.holds, violations == 0);
      if (r.holds) {
        EXPECT_EQ(r.stats.patterns_decided, space);
      } else {
        ASSERT_TRUE(r.counterexample.has_value());
        EXPECT_TRUE(c.a->holds(*r.counterexample));
        EXPECT_FALSE(c.b->holds(*r.counterexample));
      }
    }
  }
}

TEST(SubmodelMemo, ResultsIdenticalAtAnyThreadCount) {
  // The repeated-state workload (detector-S <=> cumulative bound at the
  // critical f) where memoization actually fires: the sharded runs must
  // be byte-identical to the serial one *including* the memo counters --
  // tables are per-shard plus the serial seed table, so hit/miss/entry
  // totals are fixed by the shard layout, never by the schedule.
  const ImmortalProcess immortal;
  const CumulativeFaultBound bound(2);
  const auto serial = implies_exhaustive(
      immortal, bound, 3, 2, opts_with(Memo::kAuto, Symmetry::kAuto));
  EXPECT_GT(serial.stats.memo_hits, 0);
  EXPECT_GT(serial.stats.memo_entries, 0);
  for (const int threads : {1, 2, 4, 8}) {
    const auto sharded =
        implies_exhaustive(immortal, bound, 3, 2,
                           opts_with(Memo::kAuto, Symmetry::kAuto, threads));
    expect_same(serial, sharded, /*include_memo=*/true,
                "threads=" + std::to_string(threads));
  }
}

TEST(SubmodelMemo, GoldenStatsPinTheSeedTable) {
  // Figures captured from the engine that walked every root and explored
  // every distinct depth-1 state's subtree in the seed pass. The
  // canonical-root table and one seed subtree per renaming class must
  // leave each of them unchanged, memo counters included, at any thread
  // count: the published seed table is the same key for key.
  struct Golden {
    std::string what;
    PredicatePtr a;
    PredicatePtr b;
    Round rounds;
    std::int64_t decided;
    std::int64_t nodes;
    std::int64_t leaves;
    std::int64_t pruned;
    std::int64_t hits;
    std::int64_t misses;
    std::int64_t entries;
    std::int64_t expanded_roots;
    std::string counterexample;  ///< pattern_to_text; empty when it holds
  };
  const PredicatePtr immortal = std::make_shared<ImmortalProcess>();
  const PredicatePtr cum3 = std::make_shared<CumulativeFaultBound>(3);
  const std::vector<Golden> goldens = {
      {"immortal => cum(3), 2 rounds", immortal, cum3, 2, 2562890625,
       35642340, 35640000, 1636, 704, 0, 15, 2340, ""},
      {"cum(3) => immortal, 2 rounds", cum3, immortal, 2, 2562890625,
       35642340, 35640000, 1636, 704, 0, 15, 2340, ""},
      {"immortal => cum(3), 3 rounds", immortal, cum3, 3, 129746337890625,
       163975541715, 163939899375, 32403317, 704, 0, 15, 2340, ""},
      {"cum(3) => immortal, 3 rounds", cum3, immortal, 3, 129746337890625,
       163975541715, 163939899375, 32403317, 704, 0, 15, 2340, ""},
      {"equal-D => 1-uncertainty, 2 rounds", equal_announcements(),
       k_uncertainty(1), 2, 2562890625, 204840, 202500, 2336, 4, 0, 1, 2340,
       ""},
      {"1-uncertainty => equal-D, 2 rounds", k_uncertainty(1),
       equal_announcements(), 2, 2562890625, 204840, 202500, 2336, 4, 0, 1,
       2340, ""},
      {"sync_crash(1) => sync_omission(1), 2 rounds", sync_crash(1),
       sync_omission(1), 2, 167561529, 54404, 54242, 160, 1, 1, 1, 162,
       "n=4\n{},{},{0},{0}\n{0},{0},{0},{0}\n"},
  };
  for (const int threads : {1, 4}) {
    EnumOptions o = opts_with(Memo::kAuto, Symmetry::kAuto, threads);
    o.node_budget = 1'000'000'000'000'000;
    for (const Golden& g : goldens) {
      const std::string what = g.what + " threads=" + std::to_string(threads);
      const auto r = implies_exhaustive(*g.a, *g.b, 4, g.rounds, o);
      EXPECT_EQ(r.holds, g.counterexample.empty()) << what;
      EXPECT_EQ(r.stats.patterns_decided, g.decided) << what;
      EXPECT_EQ(r.patterns_checked, g.decided) << what;
      EXPECT_EQ(r.stats.nodes, g.nodes) << what;
      EXPECT_EQ(r.stats.leaves, g.leaves) << what;
      EXPECT_EQ(r.stats.pruned_subtrees, g.pruned) << what;
      EXPECT_EQ(r.stats.expanded_roots, g.expanded_roots) << what;
      EXPECT_EQ(r.stats.total_roots, 50625) << what;
      EXPECT_TRUE(r.stats.symmetry_used) << what;
      EXPECT_EQ(r.stats.memo_hits, g.hits) << what;
      EXPECT_EQ(r.stats.memo_misses, g.misses) << what;
      EXPECT_EQ(r.stats.memo_entries, g.entries) << what;
      const std::string cx = r.counterexample.has_value()
                                 ? pattern_to_text(*r.counterexample)
                                 : std::string();
      EXPECT_EQ(cx, g.counterexample) << what;
    }
  }
}

TEST(SubmodelMemo, GoldenStatsPinTheHeardOfSeeds) {
  // The Heard-Of recoveries among the n = 4 equivalences (E19), which
  // GoldenStatsPinTheSeedTable leaves out: their compiled evaluators key
  // through ho/compile.cpp, so their seed tables come from a different
  // state_bytes family. Figures captured from the engine whose seed pass
  // explored one subtree per renaming class at full width.
  struct Golden {
    std::string what;
    PredicatePtr a;
    PredicatePtr b;
    std::int64_t nodes;
    std::int64_t leaves;
    std::int64_t pruned;
    std::int64_t hits;
    std::int64_t misses;
    std::int64_t entries;
  };
  const PredicatePtr loss_cap = ho::compile_text("loss_cap(1)");
  const PredicatePtr async = async_message_passing(1);
  const PredicatePtr self_faulty =
      ho::compile_text("all(self_delivery(),faulty(1))");
  const PredicatePtr omission = sync_omission(1);
  const std::vector<Golden> goldens = {
      {"loss_cap(1) => async(1)", loss_cap, async, 2280465, 2278125, 2295,
       45, 0, 1},
      {"async(1) => loss_cap(1)", async, loss_cap, 2280465, 2278125, 2295,
       45, 0, 1},
      {"all(self_delivery(),faulty(1)) => omission(1)", self_faulty, omission,
       204840, 202500, 2336, 4, 0, 2},
      {"omission(1) => all(self_delivery(),faulty(1))", omission, self_faulty,
       204840, 202500, 2336, 4, 0, 2},
  };
  for (const int threads : {1, 4}) {
    EnumOptions o = opts_with(Memo::kAuto, Symmetry::kAuto, threads);
    o.node_budget = 1'000'000'000'000'000;
    for (const Golden& g : goldens) {
      const std::string what = g.what + " threads=" + std::to_string(threads);
      const auto r = implies_exhaustive(*g.a, *g.b, 4, 2, o);
      EXPECT_TRUE(r.holds) << what;
      EXPECT_EQ(r.stats.patterns_decided, 2562890625) << what;
      EXPECT_EQ(r.patterns_checked, 2562890625) << what;
      EXPECT_EQ(r.stats.nodes, g.nodes) << what;
      EXPECT_EQ(r.stats.leaves, g.leaves) << what;
      EXPECT_EQ(r.stats.pruned_subtrees, g.pruned) << what;
      EXPECT_EQ(r.stats.expanded_roots, 2340) << what;
      EXPECT_EQ(r.stats.total_roots, 50625) << what;
      EXPECT_TRUE(r.stats.symmetry_used) << what;
      EXPECT_EQ(r.stats.memo_hits, g.hits) << what;
      EXPECT_EQ(r.stats.memo_misses, g.misses) << what;
      EXPECT_EQ(r.stats.memo_entries, g.entries) << what;
    }
  }
}

TEST(SubmodelMemo, CounterexampleIdenticalWithAndWithoutMemo) {
  // A refuted implication: 2-uncertainty does not imply 1-uncertainty.
  // The first counterexample in deterministic engine order must be the
  // same pattern whether or not subtrees were skipped via the tables
  // (entries are only ever created for counterexample-free subtrees).
  const auto a = k_uncertainty(2);
  const auto b = k_uncertainty(1);
  for (const Symmetry sym : {Symmetry::kOff, Symmetry::kAuto}) {
    for (const int threads : {0, 4}) {
      const auto off = implies_exhaustive(*a, *b, 3, 2,
                                          opts_with(Memo::kOff, sym, threads));
      const auto on = implies_exhaustive(*a, *b, 3, 2,
                                         opts_with(Memo::kAuto, sym, threads));
      ASSERT_FALSE(off.holds);
      expect_same(off, on, /*include_memo=*/false, "counterexample order");
    }
  }
}

TEST(SubmodelMemo, BudgetExceededIdenticalWithAndWithoutMemo) {
  // Memo hits account the replayed subtree's full node mass, so a search
  // that exhausts the budget unmemoized exhausts it memoized too (and
  // vice versa) -- the ContractViolation must fire either way.
  const ImmortalProcess immortal;
  const CumulativeFaultBound bound(2);
  for (const Memo memo : {Memo::kOff, Memo::kAuto}) {
    auto o = opts_with(memo, Symmetry::kOff);
    o.node_budget = 50;
    EXPECT_THROW(implies_exhaustive(immortal, bound, 3, 2, o),
                 ContractViolation);
  }
}

TEST(SubmodelMemo, BudgetExceededIdenticalUnderSymmetry) {
  // The seed pass visits one second round per orbit of a state's renaming
  // group and scales each subtree by its orbit, so a seed subtree's
  // reduced visit count (2340 to 13080 here) is far below its true mass
  // (50625 nodes). Budgets below the reduced count, between it and the
  // true mass, between that and a shard's total, and large enough to pass
  // must all decide exactly as the unmemoized search does.
  const ImmortalProcess immortal;
  const CumulativeFaultBound bound(3);
  for (const std::int64_t budget :
       {1'000, 5'000, 10'000, 20'000, 100'000, 100'000'000}) {
    std::string thrown[2];
    ImplicationResult result[2];
    for (const Memo memo : {Memo::kOff, Memo::kAuto}) {
      const int i = memo == Memo::kAuto ? 1 : 0;
      auto o = opts_with(memo, Symmetry::kAuto);
      o.node_budget = budget;
      try {
        result[i] = implies_exhaustive(immortal, bound, 4, 2, o);
      } catch (const ContractViolation& e) {
        thrown[i] = e.what();
      }
    }
    const std::string what = "budget=" + std::to_string(budget);
    EXPECT_EQ(thrown[0], thrown[1]) << what;
    if (thrown[0].empty() && thrown[1].empty()) {
      EXPECT_TRUE(result[0].holds) << what;
      expect_same(result[0], result[1], /*include_memo=*/false, what);
    }
  }
}

TEST(SubmodelMemo, CountersOffWhenDisabledOrUseless) {
  const ImmortalProcess immortal;
  const CumulativeFaultBound bound(2);
  // kOff: tables never consulted.
  const auto off = implies_exhaustive(
      immortal, bound, 3, 2, opts_with(Memo::kOff, Symmetry::kAuto));
  EXPECT_EQ(off.stats.memo_hits, 0);
  EXPECT_EQ(off.stats.memo_misses, 0);
  EXPECT_EQ(off.stats.memo_entries, 0);
  // One round: every inner node is a root; nothing to memoize.
  const auto r1 = implies_exhaustive(
      immortal, bound, 3, 1, opts_with(Memo::kAuto, Symmetry::kAuto));
  EXPECT_EQ(r1.stats.memo_hits, 0);
  EXPECT_EQ(r1.stats.memo_entries, 0);
}

/// Overrides only holds(): gets the whole-pattern fallback evaluator,
/// which has unbounded state and therefore no key.
class ParityPredicate final : public Predicate {
 public:
  std::string name() const override { return "parity"; }
  std::string description() const override {
    return "total announced-set size over all rounds is even";
  }
  bool holds(const FaultPattern& p) const override {
    int total = 0;
    for (Round r = 1; r <= p.rounds(); ++r) {
      for (ProcId i = 0; i < p.n(); ++i) total += p.d(i, r).size();
    }
    return total % 2 == 0;
  }
};

TEST(SubmodelMemo, KeylessEvaluatorsFallBackToPlainDfs) {
  // A predicate on the whole-pattern fallback cannot be keyed; Memo::kAuto
  // must quietly run the plain DFS (zero memo counters), not misbehave.
  const ParityPredicate parity;
  EXPECT_FALSE(parity.evaluator()->state_key().has_value());
  const CumulativeFaultBound bound(1);
  const auto off = implies_exhaustive(
      parity, bound, 2, 2, opts_with(Memo::kOff, Symmetry::kOff));
  const auto on = implies_exhaustive(
      parity, bound, 2, 2, opts_with(Memo::kAuto, Symmetry::kOff));
  expect_same(off, on, /*include_memo=*/true, "keyless fallback");
  EXPECT_EQ(on.stats.memo_hits, 0);
  EXPECT_EQ(on.stats.memo_entries, 0);
}

// ---------------------------------------------------------------------------
// The state_bytes canonicality contract (core/predicate.h): equal keys
// must imply identical verdict behaviour under any common suffix that
// never pops below the keyed depth -- across instances and across
// prefixes of different depths. Memo soundness is exactly this property.
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> random_round_words(Rng& rng, int n) {
  std::vector<std::uint64_t> d(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = rng.below(full_mask(n));
  }
  return d;
}

/// All predicates whose evaluators claim a key: the zoo plus the
/// immortal/cumulative/monotonicity cores plus the compiled catalog.
std::vector<NamedPredicate> keyed_predicates(int n) {
  std::vector<NamedPredicate> out = zoo(n);
  out.push_back({"immortal", std::make_shared<ImmortalProcess>()});
  out.push_back({"cumulative_1", std::make_shared<CumulativeFaultBound>(1)});
  out.push_back({"crash_monotonicity", std::make_shared<CrashMonotonicity>()});
  out.push_back(
      {"no_self_suspicion_exempt", std::make_shared<NoSelfSuspicion>(true)});
  for (auto& m : ho::standard_catalog()) {
    out.push_back({"ho_" + m.name, m.pred});
  }
  return out;
}

TEST(SubmodelStateKey, WholeZooAndCatalogAreKeyable) {
  // The memo's reach: if one of these quietly loses its key, memoization
  // silently degrades to the plain DFS and nobody notices until a bench
  // regresses. Pin keyability itself.
  for (const auto& entry : keyed_predicates(3)) {
    const auto eval = entry.pred->evaluator();
    eval->begin(3, 4);
    EXPECT_TRUE(eval->state_key().has_value()) << entry.name;
  }
}

TEST(SubmodelStateKey, EqualKeysImplyEqualSuffixBehaviour) {
  // Random prefix walks are bucketed by key; any two prefixes sharing a
  // key are replayed on fresh instances and driven through common random
  // suffixes, which must produce identical verdict streams. This is the
  // property the transposition tables assume, tested with no engine in
  // the loop.
  const int n = 3;
  const Round horizon = 8;
  const int kPrefixes = 48;
  for (const auto& entry : keyed_predicates(n)) {
    Rng rng(0x5eedu + static_cast<std::uint64_t>(entry.name.size()));
    // Key (as a byte string) -> list of prefixes (as digit rounds)
    // reaching it.
    std::map<std::string,
             std::vector<std::vector<std::vector<std::uint64_t>>>> buckets;
    for (int p = 0; p < kPrefixes; ++p) {
      const int depth = static_cast<int>(rng.below(5));
      std::vector<std::vector<std::uint64_t>> prefix;
      const auto eval = entry.pred->evaluator();
      eval->begin(n, horizon);
      for (int d = 0; d < depth; ++d) {
        prefix.push_back(random_round_words(rng, n));
        eval->push_round(prefix.back().data());
      }
      const auto key = eval->state_key();
      ASSERT_TRUE(key.has_value()) << entry.name;
      buckets[std::string(key->begin(), key->end())].push_back(
          std::move(prefix));
    }
    for (const auto& [key, prefixes] : buckets) {
      if (prefixes.size() < 2) continue;
      for (std::size_t j = 1; j < std::min<std::size_t>(prefixes.size(), 4);
           ++j) {
        // Fresh instances at the two keyed states.
        const auto e1 = entry.pred->evaluator();
        const auto e2 = entry.pred->evaluator();
        e1->begin(n, horizon);
        e2->begin(n, horizon);
        for (const auto& round : prefixes[0]) {
          e1->push_round(round.data());
        }
        for (const auto& round : prefixes[j]) {
          e2->push_round(round.data());
        }
        // A common suffix walk, never popping below the prefixes.
        int suffix_depth = 0;
        const int base = static_cast<int>(
            std::max(prefixes[0].size(), prefixes[j].size()));
        for (int step = 0; step < 24; ++step) {
          const bool can_push = base + suffix_depth < horizon;
          if (suffix_depth > 0 && (!can_push || rng.below(4) == 0)) {
            e1->pop_round();
            e2->pop_round();
            --suffix_depth;
            continue;
          }
          if (!can_push) break;
          const auto d = random_round_words(rng, n);
          const StepVerdict v1 = e1->push_round(d.data());
          const StepVerdict v2 = e2->push_round(d.data());
          ++suffix_depth;
          ASSERT_EQ(static_cast<int>(v1), static_cast<int>(v2))
              << entry.name << " step=" << step;
          if (v1 != StepVerdict::kSatisfiedSoFar) {
            // Backtrack off terminal verdicts, as the search would.
            e1->pop_round();
            e2->pop_round();
            --suffix_depth;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rrfd::core
