// Semantics of compiled specs, and the headline recoveries: hand-written
// zoo models fall out of operational compositions, proved exhaustively.
#include "ho/compile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/predicates.h"
#include "core/submodel.h"
#include "ho/catalog.h"
#include "ho/parse.h"
#include "sweep/submodel_parallel.h"
#include "util/check.h"

namespace {

using namespace rrfd;
using core::FaultPattern;
using core::ProcessSet;
using core::Round;
using core::RoundFaults;

/// Builds a pattern from per-round mask rows: rounds[r][i] = D(i,r+1).
FaultPattern make_pattern(int n,
                          const std::vector<std::vector<std::uint64_t>>& rounds) {
  FaultPattern p(n);
  for (const auto& row : rounds) {
    RoundFaults rf;
    for (std::uint64_t bits : row) rf.push_back(ProcessSet::from_bits(n, bits));
    p.append(std::move(rf));
  }
  return p;
}

bool holds(const std::string& spec, int n,
           const std::vector<std::vector<std::uint64_t>>& rounds) {
  return ho::compile_text(spec)->holds(make_pattern(n, rounds));
}

// --------------------------------------------------------------------------
// Primitive semantics on hand-built patterns (n = 3 unless noted).
// --------------------------------------------------------------------------

TEST(HoCompile, LossCapBoundsEveryAnnouncement) {
  EXPECT_TRUE(holds("loss_cap(1)", 3, {{0b010, 0b001, 0b000}}));
  EXPECT_FALSE(holds("loss_cap(1)", 3, {{0b011, 0b000, 0b000}}));
  EXPECT_TRUE(holds("loss_cap(2)", 3, {{0b011, 0b000, 0b000}}));
}

TEST(HoCompile, MobileCapBoundsTheRoundUnion) {
  // D(0) = {1}, D(1) = {2}: two distinct suspects in one round.
  EXPECT_FALSE(holds("mobile(1)", 3, {{0b010, 0b100, 0b000}}));
  EXPECT_TRUE(holds("mobile(2)", 3, {{0b010, 0b100, 0b000}}));
  // The suspect may move between rounds under mobile(1).
  EXPECT_TRUE(holds("mobile(1)", 3, {{0b010, 0b010, 0b010},
                                     {0b100, 0b100, 0b100}}));
}

TEST(HoCompile, SelfDeliveryForbidsSelfSuspicion) {
  EXPECT_TRUE(holds("self_delivery()", 3, {{0b010, 0b100, 0b001}}));
  EXPECT_FALSE(holds("self_delivery()", 3, {{0b000, 0b010, 0b000}}));
}

TEST(HoCompile, NoPartitionKeepsSomeoneHeardByAll) {
  EXPECT_FALSE(holds("no_partition()", 3, {{0b010, 0b100, 0b001}}));
  EXPECT_TRUE(holds("no_partition()", 3, {{0b010, 0b100, 0b000}}));
}

TEST(HoCompile, PartitionRequiresEveryDestinationToMissEverySource) {
  // src = {0}, dst = {1,2}: both 1 and 2 must suspect 0 every round.
  EXPECT_TRUE(holds("partition(src={0},dst={1,2})", 3,
                    {{0b000, 0b001, 0b001}}));
  EXPECT_FALSE(holds("partition(src={0},dst={1,2})", 3,
                     {{0b000, 0b001, 0b010}}));
  EXPECT_FALSE(holds("partition(src={0},dst={1,2})", 3,
                     {{0b000, 0b001, 0b001}, {0b000, 0b000, 0b001}}));
}

TEST(HoCompile, LinkBudgetCountsDropsPerOrderedLink) {
  // Link (0 <- 1) drops twice: over a budget of 1.
  EXPECT_FALSE(holds("link_budget(1)", 3,
                     {{0b010, 0b000, 0b000}, {0b010, 0b000, 0b000}}));
  // Two different links drop once each: within budget.
  EXPECT_TRUE(holds("link_budget(1)", 3,
                    {{0b010, 0b000, 0b000}, {0b100, 0b000, 0b000}}));
  // The same sender towards two receivers uses two separate budgets.
  EXPECT_TRUE(holds("link_budget(1)", 3,
                    {{0b100, 0b100, 0b000}}));
}

TEST(HoCompile, CrashOnlyRequiresMonotoneAnnouncements) {
  EXPECT_TRUE(holds("crash_only()", 3,
                    {{0b010, 0b000, 0b000}, {0b010, 0b010, 0b011}}));
  // Round 2 forgets the announcement of round 1.
  EXPECT_FALSE(holds("crash_only()", 3,
                     {{0b010, 0b000, 0b000}, {0b000, 0b010, 0b010}}));
}

TEST(HoCompile, FaultyCapAndKernelBoundTheCumulativeUnion) {
  const std::vector<std::vector<std::uint64_t>> spread = {
      {0b010, 0b000, 0b000}, {0b100, 0b000, 0b000}};
  EXPECT_FALSE(holds("faulty(1)", 3, spread));
  EXPECT_TRUE(holds("faulty(2)", 3, spread));
  EXPECT_FALSE(holds("kernel(2)", 3, spread));
  EXPECT_TRUE(holds("kernel(1)", 3, spread));
  // kernel(k) with k > n is unsatisfiable, even by the empty pattern.
  EXPECT_FALSE(ho::compile_text("kernel(4)")->holds(FaultPattern(3)));
}

TEST(HoCompile, DelayCapBoundsConsecutiveDropsPerLink) {
  EXPECT_FALSE(holds("delay(1)", 3,
                     {{0b010, 0b000, 0b000}, {0b010, 0b000, 0b000}}));
  // Down, up, down again: no run exceeds one round.
  EXPECT_TRUE(holds("delay(1)", 3,
                    {{0b010, 0b000, 0b000},
                     {0b000, 0b000, 0b000},
                     {0b010, 0b000, 0b000}}));
}

TEST(HoCompile, WindowScopesItsChildToASubRange) {
  // Monotonicity broken between rounds 1 and 2, intact from round 2 on.
  const std::vector<std::vector<std::uint64_t>> tail_monotone = {
      {0b010, 0b000, 0b000}, {0b000, 0b000, 0b000}, {0b001, 0b001, 0b010}};
  EXPECT_FALSE(holds("crash_only()", 3, tail_monotone));
  EXPECT_TRUE(holds("window(2,0,crash_only())", 3, tail_monotone));
  // window(1,1,...): only the first round is constrained.
  EXPECT_TRUE(holds("window(1,1,mobile(0))", 3,
                    {{0b000, 0b000, 0b000}, {0b010, 0b100, 0b001}}));
  EXPECT_FALSE(holds("window(1,1,mobile(0))", 3,
                     {{0b010, 0b000, 0b000}, {0b000, 0b000, 0b000}}));
  // A window beyond the pattern constrains nothing.
  EXPECT_TRUE(holds("window(3,4,mobile(0))", 3,
                    {{0b010, 0b100, 0b001}, {0b010, 0b100, 0b001}}));
  // Budgets reset inside the window: only in-window drops count.
  EXPECT_TRUE(holds("window(2,0,link_budget(1))", 3,
                    {{0b010, 0b000, 0b000},
                     {0b010, 0b000, 0b000},
                     {0b000, 0b000, 0b000}}));
}

TEST(HoCompile, EventuallyNeedsOneGoodRound) {
  EXPECT_TRUE(holds("eventually(mobile(0))", 3,
                    {{0b010, 0b100, 0b001}, {0b000, 0b000, 0b000}}));
  EXPECT_FALSE(holds("eventually(mobile(0))", 3,
                     {{0b010, 0b100, 0b001}, {0b010, 0b000, 0b000}}));
  // The empty pattern has no good round.
  EXPECT_FALSE(ho::compile_text("eventually(mobile(0))")->holds(
      FaultPattern(3)));
}

TEST(HoCompile, CompiledPredicatesRejectTooSmallSystems) {
  const auto pred = ho::compile_text("partition(src={0},dst={5})");
  EXPECT_THROW((void)pred->holds(FaultPattern(3)), ContractViolation);
  auto eval = pred->evaluator();
  EXPECT_THROW(eval->begin(3, 1), ContractViolation);
  EXPECT_NO_THROW((void)pred->holds(FaultPattern(6)));
}

TEST(HoCompile, EvaluatorOutlivesItsPredicate) {
  // Each evaluator below outlives the temporary predicate that made it;
  // its nodes own the spec values they read, so it stays valid.
  const std::string spec = "all(loss_cap(1),no_partition())";
  std::unique_ptr<core::StepEvaluator> direct =
      ho::compile_text(spec)->evaluator();
  std::unique_ptr<core::StepEvaluator> conjoined =
      core::all_of("both", {ho::compile_text(spec),
                            ho::compile_text("link_budget(1)")})
          ->evaluator();
  for (core::StepEvaluator* eval : {direct.get(), conjoined.get()}) {
    eval->begin(3, 2);
    const std::uint64_t quiet[3] = {0b010, 0b000, 0b000};
    EXPECT_EQ(eval->push_round(quiet), core::StepVerdict::kSatisfiedSoFar);
    const std::uint64_t lossy[3] = {0b110, 0b000, 0b000};
    EXPECT_EQ(eval->push_round(lossy), core::StepVerdict::kViolatedForever);
    eval->pop_round();
    std::vector<std::uint8_t> key;
    EXPECT_TRUE(eval->state_bytes(key));
  }
}

TEST(HoCompile, NamesDefaultToCanonicalSpecText) {
  EXPECT_EQ(ho::compile_text(" loss_cap( 2 ) ")->name(), "ho:loss_cap(2)");
  EXPECT_EQ(ho::compile_text("loss_cap(2)", "custom")->name(), "custom");
}

// --------------------------------------------------------------------------
// Zoo recoveries: derived compositions are exhaustively equivalent to
// hand-written models (the E19 claim; suite name keeps these in the TSan
// submodel net).
// --------------------------------------------------------------------------

void expect_recovered(const std::string& spec, const core::PredicatePtr& zoo,
                      int n, Round rounds) {
  const auto derived = ho::compile_text(spec);
  const auto r = core::equivalent_exhaustive(*derived, *zoo, n, rounds);
  EXPECT_TRUE(r.equivalent())
      << spec << " vs " << zoo->name() << " at n=" << n
      << ", rounds=" << rounds << (r.forward.holds ? " (backward" : " (forward")
      << " direction refuted)";
}

TEST(HoSubmodelRecovery, LossCapRecoversAsyncMessagePassing) {
  expect_recovered("loss_cap(1)", core::async_message_passing(1), 3, 2);
  expect_recovered("loss_cap(1)", core::async_message_passing(1), 4, 1);
  expect_recovered("loss_cap(2)", core::async_message_passing(2), 3, 2);
}

TEST(HoSubmodelRecovery, KernelRecoversImmortalProcessDetectorS) {
  expect_recovered("kernel(1)", core::detector_s(), 3, 2);
  expect_recovered("kernel(1)", core::detector_s(), 4, 1);
}

TEST(HoSubmodelRecovery, SelfDeliveryPlusFaultyRecoversSyncOmission) {
  expect_recovered("all(self_delivery(),faulty(1))", core::sync_omission(1), 3,
                   2);
}

TEST(HoSubmodelRecovery, LossCapPlusNoPartitionRecoversSwmr) {
  expect_recovered("all(loss_cap(1),no_partition())",
                   core::swmr_shared_memory(1), 3, 2);
}

TEST(HoSubmodelRecovery, PrimitivesRecoverSingleZooPredicates) {
  expect_recovered("self_delivery()",
                   std::make_shared<core::NoSelfSuspicion>(), 3, 2);
  expect_recovered("faulty(2)", std::make_shared<core::CumulativeFaultBound>(2),
                   3, 2);
  expect_recovered("mobile(2)", std::make_shared<core::SomeoneHeardByAll>(), 3,
                   2);
  expect_recovered("window(1,0,crash_only())",
                   std::make_shared<core::CrashMonotonicity>(), 3, 2);
  expect_recovered("window(1,0,crash_only())",
                   std::make_shared<core::CrashMonotonicity>(), 2, 3);
  expect_recovered("kernel(1)", std::make_shared<core::ImmortalProcess>(), 3,
                   2);
}

TEST(HoSubmodelRecovery, ZeroBudgetsCollapseToNeverFaulty) {
  expect_recovered("link_budget(0)", std::make_shared<core::NeverFaulty>(), 3,
                   2);
  expect_recovered("delay(0)", std::make_shared<core::NeverFaulty>(), 3, 2);
  expect_recovered("mobile(0)", std::make_shared<core::NeverFaulty>(), 3, 2);
  expect_recovered("faulty(0)", std::make_shared<core::NeverFaulty>(), 3, 2);
}

TEST(HoSubmodelRecovery, DerivedAgainstDerivedEquivalences) {
  // kernel(k) and faulty(n-k) coincide for a fixed n.
  const auto kernel2 = ho::compile_text("kernel(2)");
  const auto faulty1 = ho::compile_text("faulty(1)");
  EXPECT_TRUE(core::equivalent_exhaustive(*kernel2, *faulty1, 3, 2)
                  .equivalent());
  // window(1,0,s) is the identity wrapper.
  const auto wrapped = ho::compile_text("window(1,0,link_budget(1))");
  const auto plain = ho::compile_text("link_budget(1)");
  EXPECT_TRUE(core::equivalent_exhaustive(*wrapped, *plain, 3, 2)
                  .equivalent());
}

TEST(HoSubmodelRecovery, StrictInclusionsComeOutStrict) {
  // mobile(1) is strictly stronger than loss_cap(1): the suspect set is
  // shared across observers.
  const auto mob = ho::compile_text("mobile(1)");
  const auto cap = ho::compile_text("loss_cap(1)");
  EXPECT_TRUE(core::implies_exhaustive(*mob, *cap, 3, 2).holds);
  const auto back = core::implies_exhaustive(*cap, *mob, 3, 2);
  EXPECT_FALSE(back.holds);
  ASSERT_TRUE(back.counterexample.has_value());
  EXPECT_TRUE(cap->holds(*back.counterexample));
  EXPECT_FALSE(mob->holds(*back.counterexample));
}

TEST(HoSubmodelRecovery, RecoveryDecidedIdenticallyAcrossEnginePaths) {
  // The pruned, symmetry-folded search and the naive sweep of all 7^6
  // patterns decide the recovery identically.
  const auto derived = ho::compile_text("all(loss_cap(1),no_partition())");
  const auto zoo = core::swmr_shared_memory(1);
  bool naive = true;
  const std::int64_t space = core::enumerate_patterns(
      3, 2, [&](const core::FaultPattern& p) {
        naive = naive && (!derived->holds(p) || zoo->holds(p));
        return true;
      });
  EXPECT_TRUE(naive);
  for (const auto symmetry : {core::Symmetry::kAuto, core::Symmetry::kOff}) {
    core::EnumOptions options;
    options.symmetry = symmetry;
    const auto r = core::implies_exhaustive(*derived, *zoo, 3, 2, options);
    EXPECT_EQ(r.holds, naive);
    EXPECT_EQ(r.patterns_checked, space);
  }
}

TEST(HoSubmodelRecovery, SweepExecutorDecidesRecoveries) {
  // The derived models ride the parallel sweep executor like any zoo
  // member; shard splice order makes the result thread-count invariant.
  const auto derived = ho::compile_text("all(self_delivery(),faulty(1))");
  const auto serial =
      core::equivalent_exhaustive(*derived, *core::sync_omission(1), 3, 2);
  const auto threaded = sweep::equivalent_exhaustive(
      *derived, *core::sync_omission(1), 3, 2, /*threads=*/4);
  EXPECT_TRUE(serial.equivalent());
  EXPECT_TRUE(threaded.equivalent());
  EXPECT_EQ(serial.forward.patterns_checked,
            threaded.forward.patterns_checked);
  EXPECT_EQ(serial.forward.stats.nodes, threaded.forward.stats.nodes);
}

TEST(HoSubmodelRecovery, TwinsAgreeOnHoldsOverEveryPattern) {
  // The zoo predicates and their Heard-Of twins share one incremental
  // evaluator, so an equivalence decided by the engine is no evidence
  // that the two definitions agree. Their holds() share no code: compare
  // them directly on every pattern, with no evaluator involved.
  struct Twin {
    core::PredicatePtr zoo;
    core::PredicatePtr other;
  };
  for (const auto& [n, rounds] :
       std::vector<std::pair<int, Round>>{{2, 3}, {3, 2}, {4, 1}}) {
    const std::vector<Twin> twins = {
        {std::make_shared<core::PerRoundFaultBound>(1),
         ho::compile_text("loss_cap(1)")},
        {std::make_shared<core::CumulativeFaultBound>(1),
         ho::compile_text("faulty(1)")},
        {std::make_shared<core::ImmortalProcess>(),
         ho::compile_text("kernel(1)")},
        {std::make_shared<core::CrashMonotonicity>(),
         ho::compile_text("crash_only()")},
        {std::make_shared<core::SomeoneHeardByAll>(),
         ho::compile_text("no_partition()")},
        {std::make_shared<core::SomeoneHeardByAll>(),
         ho::compile(ho::mobile(n - 1))},
        {std::make_shared<core::NoSelfSuspicion>(false),
         ho::compile_text("self_delivery()")},
        {std::make_shared<core::NeverFaulty>(), ho::compile_text("mobile(0)")},
        {std::make_shared<core::EqualAnnouncements>(),
         std::make_shared<core::KUncertainty>(1)},
        {std::make_shared<core::ImmortalProcess>(),
         std::make_shared<core::CumulativeFaultBound>(n - 1)},
    };
    std::vector<std::int64_t> disagreements(twins.size(), 0);
    core::enumerate_patterns(n, rounds, [&](const FaultPattern& p) {
      for (std::size_t t = 0; t < twins.size(); ++t) {
        if (twins[t].zoo->holds(p) != twins[t].other->holds(p)) {
          ++disagreements[t];
        }
      }
      return true;
    });
    for (std::size_t t = 0; t < twins.size(); ++t) {
      EXPECT_EQ(disagreements[t], 0)
          << twins[t].zoo->name() << " vs " << twins[t].other->name()
          << " at n=" << n << ", rounds=" << rounds;
    }
  }
}

TEST(HoSubmodelRecovery, EventuallyDescendsThroughViolatedPrefixes) {
  // eventually() is honestly non-prunable: the only counterexamples to
  // "eventually-quiet implies never-faulty" have their noisy round
  // *before* the quiet one, so the engine must keep descending under
  // prefixes the evaluator calls violated. An unsoundly pruning engine
  // (or an over-eager prunable() trait) would return holds here.
  const auto ev = ho::compile_text("eventually(mobile(0))");
  EXPECT_FALSE(ev->prunable());
  const auto never = std::make_shared<core::NeverFaulty>();
  const auto r = core::implies_exhaustive(*ev, *never, 2, 2);
  ASSERT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_TRUE(ev->holds(*r.counterexample));
  EXPECT_FALSE(never->holds(*r.counterexample));
}

// --------------------------------------------------------------------------
// Catalog and placement.
// --------------------------------------------------------------------------

TEST(HoCatalog, EntriesAreCanonicalAndUniquelyNamed) {
  const auto catalog = ho::standard_catalog();
  ASSERT_FALSE(catalog.empty());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto& entry = catalog[i];
    ASSERT_NE(entry.pred, nullptr) << entry.name;
    EXPECT_EQ(ho::to_text(ho::parse_spec(entry.spec)), entry.spec)
        << entry.name << ": catalog spec text is not canonical";
    EXPECT_EQ(entry.pred->name(), entry.name);
    for (std::size_t j = i + 1; j < catalog.size(); ++j) {
      EXPECT_NE(entry.name, catalog[j].name);
    }
  }
}

TEST(HoCatalog, PlacementFindsTheRecoveredZooModels) {
  const auto rows =
      ho::place_in_zoo(*ho::compile_text("loss_cap(1)"), 3, 1);
  ASSERT_EQ(rows.size(), ho::reference_zoo().size());
  bool saw_async = false;
  for (const auto& row : rows) {
    if (row.vs == "async(1)") {
      saw_async = true;
      EXPECT_TRUE(row.implies);
      EXPECT_TRUE(row.implied_by);
    }
  }
  EXPECT_TRUE(saw_async);
}

/// One row per reference_zoo() model; cell c is '1' iff the row's
/// predicate implies column c's, decided exactly at (n, rounds).
std::vector<std::string> zoo_lattice(int n, Round rounds) {
  const auto zoo = ho::reference_zoo();
  std::vector<std::string> rows;
  for (const auto& row : zoo) {
    std::string cells;
    for (const auto& col : zoo) {
      cells += core::implies_exhaustive(*row.pred, *col.pred, n, rounds).holds
                   ? '1'
                   : '0';
    }
    rows.push_back(cells);
  }
  return rows;
}

TEST(HoCatalog, GoldenZooLatticeE13AndE13c) {
  // Rows and columns in reference_zoo() order: omission(1), crash(1),
  // async(1), swmr(1), snapshot(1), S, 2-uncertainty, equal-D, skew(2,1).
  // The same matrix holds at n = 3 and n = 4 (bench_lattice E13, E13c).
  const std::vector<std::string> golden = {
      "111111101", "111111101", "001000001", "001101001", "111111101",
      "000001000", "000001100", "000001110", "000000001",
  };
  EXPECT_EQ(zoo_lattice(3, 1), golden);
  EXPECT_EQ(zoo_lattice(4, 1), golden);
}

TEST(HoCatalog, GoldenPlacementMatrixE19) {
  // bench_lattice E19 at n = 3, 2 rounds: catalog rows against the
  // reference zoo, '=' equivalent, '<' strict submodel, '>' strict
  // supermodel, '#' incomparable.
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"ho-async(1)", ">>=>>###<"},
      {"ho-omission(1)", "=#<<<<<#<"},
      {"ho-swmr(1)", ">><=>###<"},
      {"ho-detector-S", ">>##>=###"},
      {"ho-mobile(1)", ">><<><<#<"},
      {"ho-link-budget(1)", "#########"},
      {"ho-delay(1)", "#########"},
      {"ho-crash-tail", ">>>>>>>>>"},
      {"ho-eventually-quiet", "#########"},
      {"ho-partition(0|12)", "#########"},
  };
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& entry : ho::standard_catalog()) {
    std::string cells;
    for (const ho::Placement& p : ho::place_in_zoo(*entry.pred, 3, 2)) {
      cells += p.implies ? (p.implied_by ? '=' : '<')
                         : (p.implied_by ? '>' : '#');
    }
    rows.emplace_back(entry.name, cells);
  }
  EXPECT_EQ(rows, golden);
}

TEST(HoCatalog, PlacementHonorsEnumOptions) {
  core::EnumOptions options;
  options.runner = sweep::shard_runner(2);
  const auto rows = ho::place_in_zoo(*ho::compile_text("kernel(1)"), 3, 1,
                                     options);
  for (const auto& row : rows) {
    if (row.vs == "S") {
      EXPECT_TRUE(row.implies);
      EXPECT_TRUE(row.implied_by);
    }
  }
}

}  // namespace
