// Evaluator conformance for every compiler-derived predicate: the
// incremental word nodes give exact per-prefix verdicts against the
// whole-pattern set-algebra interpreter holds() -- plus honesty checks on
// the derived traits (a dishonest prunable()/symmetric() would make the
// exhaustive engine cut or fold subtrees unsoundly).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../core/evaluator_conformance.h"
#include "core/fault_pattern.h"
#include "core/predicate.h"
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
using core::ProcId;
using core::Round;
using core::RoundFaults;
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
// Trait honesty beyond prunability: claimed symmetry must be real
// invariance under process renaming.
// --------------------------------------------------------------------------

/// Applies a renaming pi to a pattern: D'(pi(i), r) = pi(D(i, r)).
FaultPattern permute(const FaultPattern& p, const std::vector<int>& pi) {
  const int n = p.n();
  FaultPattern out(n);
  for (Round r = 1; r <= p.rounds(); ++r) {
    RoundFaults round(static_cast<std::size_t>(n), ProcessSet(n));
    for (ProcId i = 0; i < n; ++i) {
      ProcessSet renamed(n);
      for (ProcId j : p.d(i, r)) {
        renamed.add(pi[static_cast<std::size_t>(j)]);
      }
      round[static_cast<std::size_t>(pi[static_cast<std::size_t>(i)])] =
          renamed;
    }
    out.append(std::move(round));
  }
  return out;
}

TEST(HoConformance, ClaimedSymmetryIsRealInvariance) {
  const std::vector<std::vector<int>> perms3 = {
      {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const std::string& spec : conformance_specs()) {
    const auto pred = ho::compile_text(spec);
    if (!pred->symmetric() || ho::max_process_id(ho::parse_spec(spec)) >= 0) {
      continue;
    }
    // Exhaustive over single rounds at n = 3, all non-identity renamings.
    const std::uint64_t full = full_mask(3);
    FaultPattern p(3);
    for (std::uint64_t d0 = 0; d0 < full; ++d0) {
      for (std::uint64_t d1 = 0; d1 < full; ++d1) {
        for (std::uint64_t d2 = 0; d2 < full; ++d2) {
          RoundFaults round{ProcessSet::from_bits(3, d0),
                            ProcessSet::from_bits(3, d1),
                            ProcessSet::from_bits(3, d2)};
          p.append(std::move(round));
          const bool base = pred->holds(p);
          for (const auto& pi : perms3) {
            EXPECT_EQ(pred->holds(permute(p, pi)), base)
                << spec << "\n" << p.to_string();
          }
          p.pop_round();
        }
      }
    }
  }
}

TEST(HoConformance, PartitionIsHonestlyAsymmetric) {
  // The conservative symmetric() == false must be earned: swapping the
  // two processes flips the verdict on a witness pattern.
  const auto pred = ho::compile_text("partition(src={0},dst={1})");
  FaultPattern p(2);
  p.append({ProcessSet(2), ProcessSet::from_bits(2, 0b01)});
  EXPECT_TRUE(pred->holds(p));
  EXPECT_FALSE(pred->holds(permute(p, {1, 0})));
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
