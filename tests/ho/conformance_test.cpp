// Evaluator conformance for every compiler-derived predicate: the
// incremental word nodes give exact per-prefix verdicts against the
// whole-pattern set-algebra interpreter holds() -- plus honesty checks on
// the derived traits (a dishonest prunable()/symmetric() would make the
// exhaustive engine cut or fold subtrees unsoundly).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../core/evaluator_conformance.h"
#include "core/fault_pattern.h"
#include "core/predicate.h"
#include "core/predicates.h"
#include "core/process_set.h"
#include "core/words.h"
#include "ho/catalog.h"
#include "ho/compile.h"
#include "ho/parse.h"
#include "util/rng.h"

namespace {

using namespace rrfd;
using core::FaultPattern;
using core::ProcessSet;
using core::StepVerdict;
using core::full_mask;

/// Specs under conformance: the standard catalog plus compositions that
/// stress every combinator corner (closed/nested/out-of-range windows,
/// eventual bodies with conjunctions, asymmetric primitives, zero and
/// saturating budgets).
std::vector<std::string> conformance_specs() {
  std::vector<std::string> specs;
  for (const auto& entry : ho::standard_catalog()) specs.push_back(entry.spec);
  const std::vector<std::string> extra = {
      "faulty(0)",
      "kernel(2)",
      "kernel(3)",
      "mobile(2)",
      "loss_cap(0)",
      "delay(2)",
      "link_budget(2)",
      "window(1,1,mobile(0))",
      "window(2,3,loss_cap(1))",
      "window(3,0,crash_only())",
      "window(4,6,mobile(0))",
      "window(2,0,window(2,0,crash_only()))",
      "window(2,2,eventually(mobile(0)))",
      "eventually(all(self_delivery(),no_partition()))",
      "eventually(partition(src={0},dst={1}))",
      "all(window(2,0,crash_only()),eventually(mobile(0)))",
      "all(loss_cap(1),link_budget(1),delay(1))",
      "partition(src={0},dst={1})",
      "all(partition(src={1},dst={0}),faulty(2))",
  };
  specs.insert(specs.end(), extra.begin(), extra.end());
  return specs;
}

/// True when the spec fits a system of n processes (partition masks may
/// name ids that require a larger n).
bool fits(const std::string& spec, int n) {
  return ho::max_process_id(ho::parse_spec(spec)) < n;
}

TEST(HoConformance, EveryDerivedPredicateConformsOnBothPathsN2) {
  for (const std::string& spec : conformance_specs()) {
    if (!fits(spec, 2)) continue;
    const auto pred = ho::compile_text(spec);
    core::check_evaluator_conformance(*pred, 2, 3);  // 9 + 81 + 729 prefixes
  }
}

TEST(HoConformance, EveryDerivedPredicateConformsOnBothPathsN3) {
  for (const std::string& spec : conformance_specs()) {
    if (!fits(spec, 3)) continue;
    const auto pred = ho::compile_text(spec);
    core::check_evaluator_conformance(*pred, 3, 2);  // 343 + 117649 prefixes
  }
}

TEST(HoConformance, DeepWindowsConformOverLongPatterns) {
  // Windows that only open (or close) beyond depth 3 need longer
  // patterns than the sweep above; n = 2 keeps 9^5 prefixes cheap.
  for (const std::string& spec :
       {std::string("window(4,6,mobile(0))"),
        std::string("window(3,0,link_budget(1))"),
        std::string("all(window(2,4,delay(1)),window(5,0,crash_only()))")}) {
    const auto pred = ho::compile_text(spec);
    core::check_evaluator_conformance(*pred, 2, 5);
  }
}

// --------------------------------------------------------------------------
// Licences: the kSatisfiedForever verdicts the shared evaluators grant.
// --------------------------------------------------------------------------

TEST(HoConformance, TwinsPromiseForeverAtOneProcess) {
  // At n = 1 the only legal D is the empty set, so no round can violate
  // self-delivery or equal announcements: both twins of each pair must
  // say so from the first round on.
  const std::vector<core::PredicatePtr> preds = {
      std::make_shared<core::NoSelfSuspicion>(false),
      ho::compile_text("self_delivery()"),
      std::make_shared<core::EqualAnnouncements>(),
      std::make_shared<core::KUncertainty>(1),
  };
  const std::uint64_t quiet = 0;
  for (const auto& pred : preds) {
    auto eval = pred->evaluator();
    eval->begin(1, 2);
    EXPECT_EQ(eval->push_round(&quiet), StepVerdict::kSatisfiedForever)
        << pred->name();
  }
}

TEST(HoConformance, UnopenedWindowsReportTheirChildsEmptyScope) {
  // Before a window opens, its verdict is the child's on the empty scope:
  // a vacuous cap promises forever from depth 1, crash_only() does not.
  const std::vector<std::pair<std::string, StepVerdict>> cases = {
      {"window(3,0,faulty(5))", StepVerdict::kSatisfiedForever},
      {"window(3,0,loss_cap(2))", StepVerdict::kSatisfiedForever},
      {"window(2,0,crash_only())", StepVerdict::kSatisfiedSoFar},
  };
  const std::vector<std::uint64_t> quiet(3, 0);
  for (const auto& [spec, expected] : cases) {
    const auto pred = ho::compile_text(spec);
    auto eval = pred->evaluator();
    eval->begin(3, 4);
    for (int depth = 1; depth <= 4; ++depth) {
      EXPECT_EQ(eval->push_round(quiet.data()), expected)
          << spec << " at depth " << depth;
    }
  }
}

// --------------------------------------------------------------------------
// Trait honesty beyond prunability: claimed symmetry must be real
// invariance under process renaming.
// --------------------------------------------------------------------------

TEST(HoConformance, ClaimedSymmetryIsRealInvariance) {
  // Exhaustive at n = 3 over all renamings: holds() on every one-round
  // prefix, and the three-valued evaluator verdicts on every prefix of up
  // to two rounds.
  for (const std::string& spec : conformance_specs()) {
    const auto pred = ho::compile_text(spec);
    if (!pred->symmetric() || ho::max_process_id(ho::parse_spec(spec)) >= 0) {
      continue;
    }
    core::check_renaming_invariance(*pred, 3, 2);
  }
}

TEST(HoConformance, PartitionIsHonestlyAsymmetric) {
  // The conservative symmetric() == false must be earned: swapping the
  // two processes flips the verdict on a witness pattern.
  const auto pred = ho::compile_text("partition(src={0},dst={1})");
  FaultPattern p(2);
  p.append({ProcessSet(2), ProcessSet::from_bits(2, 0b01)});
  EXPECT_TRUE(pred->holds(p));
  EXPECT_FALSE(pred->holds(core::permute(p, {1, 0})));
}

// --------------------------------------------------------------------------
// Word-boundary walks: n = 63 / 64 masks with bit 63 live exercise the
// evaluators' word cores where shift-by-n would be UB.
// --------------------------------------------------------------------------

TEST(HoConformance, WordAndSetVerdictsMatchAtTheWordBoundary) {
  // Seeded push/pop walks at n = 63 / 64: every word-node verdict must
  // match the set-algebra holds() on the pushed prefix. At n = 64 bit 63
  // is live in about half the draws.
  for (const std::string& spec : conformance_specs()) {
    if (ho::max_process_id(ho::parse_spec(spec)) >= 0) continue;
    const auto pred = ho::compile_text(spec);
    for (const int n : {63, 64}) {
      Rng rng(std::uint64_t{0x9e3779b97f4a7c15} ^
              static_cast<std::uint64_t>(n));
      core::check_random_walk(*pred, n, rng, /*horizon=*/8, /*steps=*/48,
                              /*retract_terminal=*/false);
    }
  }
}

TEST(HoConformance, FullWordMasksFlowThroughEvaluators) {
  // Deterministic corner: at n = 64 suspect everyone-but-self (bit 63
  // set in 63 of 64 words), then a quiet round.
  const int n = 64;
  const auto pred = ho::compile_text("all(self_delivery(),loss_cap(63))");
  auto eval = pred->evaluator();
  eval->begin(n, 2);
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    words[static_cast<std::size_t>(i)] =
        full_mask(n) & ~(std::uint64_t{1} << i);
  }
  EXPECT_EQ(eval->push_round(words.data()), StepVerdict::kSatisfiedSoFar);
  FaultPattern p(n);
  p.append(words.data());
  EXPECT_TRUE(pred->holds(p));
  // Violations at the boundary: process 63 suspecting itself.
  words[63] = std::uint64_t{1} << 63;
  EXPECT_EQ(eval->push_round(words.data()), StepVerdict::kViolatedForever);
  p.append(words.data());
  EXPECT_FALSE(pred->holds(p));
}

}  // namespace
