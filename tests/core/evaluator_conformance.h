// The independent oracle for every StepEvaluator word core: the
// predicate's own whole-pattern holds(), consulted on every pushed prefix,
// and the renaming check behind every symmetric() claim.
//
// Shared by the zoo suites (predicates_test, differential_oracle_test,
// submodel_memo_test, submodel_test) and the Heard-Of suite
// (tests/ho/conformance_test), so both families of word cores answer to
// one definition of conformance.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/predicates.h"
#include "util/rng.h"

namespace rrfd::core {

struct NamedPredicate {
  std::string name;
  PredicatePtr pred;
};

/// Every zoo factory, parameterized so each is satisfiable at size n.
/// Together these instantiate every evaluator rule of the zoo. No factory
/// composes NeverFaulty; it runs the mobile cap that SomeoneHeardByAll
/// runs at n - 1, so its own case is cap 0 (tested with it directly).
inline std::vector<NamedPredicate> zoo(int n) {
  const int f = n > 2 ? n / 2 : 1;
  std::vector<NamedPredicate> out;
  out.push_back({"sync_omission", sync_omission(f)});
  out.push_back({"sync_crash", sync_crash(f)});
  out.push_back({"async_message_passing", async_message_passing(f)});
  out.push_back({"swmr_shared_memory", swmr_shared_memory(f)});
  out.push_back({"swmr_shared_memory_alt", swmr_shared_memory_alt(f)});
  out.push_back({"atomic_snapshot", atomic_snapshot(f)});
  out.push_back({"detector_s", detector_s()});
  out.push_back({"k_uncertainty", k_uncertainty(f)});
  out.push_back({"equal_announcements", equal_announcements()});
  out.push_back({"quorum_skew", quorum_skew(f + 1, f)});
  return out;
}

/// Exhaustive DFS over every pattern of `rounds` rounds, exercising the
/// evaluator exactly the way the enumeration engine does (push/pop in
/// LIFO order, including pushes after a violation) and checking at every
/// prefix that
///  * the verdict is kViolatedForever iff holds(prefix) is false,
///  * below a kSatisfiedForever promise every prefix satisfies, and
///  * below a violation of a prunable() predicate every prefix violates.
inline void check_evaluator_conformance(const Predicate& pred, int n,
                                        Round rounds) {
  const std::uint64_t max_mask = full_mask(n) - 1;  // D != S
  auto eval = pred.evaluator();
  eval->begin(n, rounds);
  FaultPattern prefix(n);

  std::function<void(Round, bool, bool)> rec = [&](Round depth,
                                                   bool forever_above,
                                                   bool violated_above) {
    std::vector<std::uint64_t> digits(static_cast<std::size_t>(n), 0);
    for (;;) {
      const StepVerdict v = eval->push_round(digits.data());
      prefix.append(digits.data());
      const bool sat = pred.holds(prefix);
      EXPECT_EQ(v != StepVerdict::kViolatedForever, sat)
          << pred.name() << " at depth " << depth << "\n"
          << prefix.to_string();
      if (forever_above) {
        EXPECT_TRUE(sat) << pred.name()
                         << ": kSatisfiedForever promise broken\n"
                         << prefix.to_string();
      }
      if (violated_above && pred.prunable()) {
        EXPECT_FALSE(sat) << pred.name()
                          << ": prunable violation recovered\n"
                          << prefix.to_string();
      }
      if (depth < rounds) {
        rec(depth + 1, forever_above || v == StepVerdict::kSatisfiedForever,
            violated_above || v == StepVerdict::kViolatedForever);
      }
      prefix.pop_round();
      eval->pop_round();

      int i = 0;
      while (i < n && digits[static_cast<std::size_t>(i)] == max_mask) {
        digits[static_cast<std::size_t>(i)] = 0;
        ++i;
      }
      if (i == n) return;
      ++digits[static_cast<std::size_t>(i)];
    }
  };
  rec(1, false, false);
}

/// Applies a renaming pi to a pattern: D'(pi(i), r) = pi(D(i, r)).
inline FaultPattern permute(const FaultPattern& p, const std::vector<int>& pi) {
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

/// What a symmetric() claim promises, checked exhaustively over every
/// prefix of up to `rounds` rounds at n: holds() agrees on each one-round
/// prefix and its renamings, and an evaluator fed a renamed prefix gives
/// the unrenamed prefix's three-valued verdict at every depth -- down to
/// the first kSatisfiedForever, below which no engine consults it.
/// kViolatedForever is already pinned to holds() by the conformance check
/// above; this also pins the kSatisfiedForever promises, on which the
/// exhaustive engine shares one seed subtree per renaming class. The
/// renamings checked are the transposition (0 1) and the cycle
/// i -> i + 1 mod n: they generate every renaming, so invariance under
/// both on every prefix is invariance under all n!.
inline void check_renaming_invariance(const Predicate& pred, int n,
                                      Round rounds) {
  std::vector<std::vector<int>> perms;  // identity first
  std::vector<int> pi(static_cast<std::size_t>(n));
  std::iota(pi.begin(), pi.end(), 0);
  perms.push_back(pi);
  if (n >= 2) {
    std::swap(pi[0], pi[1]);
    perms.push_back(pi);
  }
  if (n >= 3) {
    for (int i = 0; i < n; ++i) {
      pi[static_cast<std::size_t>(i)] = (i + 1) % n;
    }
    perms.push_back(pi);
  }
  std::vector<std::unique_ptr<StepEvaluator>> evals;
  for (std::size_t k = 0; k < perms.size(); ++k) {
    evals.push_back(pred.evaluator());
    evals.back()->begin(n, rounds);
  }
  const std::uint64_t max_mask = full_mask(n) - 1;  // D != S
  FaultPattern prefix(n);
  std::vector<std::uint64_t> renamed(static_cast<std::size_t>(n));
  int failures = 0;
  const auto fail = [&](const std::string& why) {
    if (++failures <= 3) {
      ADD_FAILURE() << pred.name() << ": " << why << "\n"
                    << prefix.to_string();
    }
  };

  std::function<void(Round)> rec = [&](Round depth) {
    std::vector<std::uint64_t> digits(static_cast<std::size_t>(n), 0);
    for (;;) {
      prefix.append(digits.data());
      const bool base_holds = depth == 1 && pred.holds(prefix);
      StepVerdict base = StepVerdict::kSatisfiedSoFar;
      for (std::size_t k = 0; k < perms.size(); ++k) {
        const std::vector<int>& p = perms[k];
        for (int i = 0; i < n; ++i) {
          std::uint64_t image = 0;
          for (int j = 0; j < n; ++j) {
            if ((digits[static_cast<std::size_t>(i)] >> j) & 1) {
              image |= std::uint64_t{1} << p[static_cast<std::size_t>(j)];
            }
          }
          renamed[static_cast<std::size_t>(p[static_cast<std::size_t>(i)])] =
              image;
        }
        const StepVerdict v = evals[k]->push_round(renamed.data());
        if (k == 0) {
          base = v;
          continue;
        }
        if (v != base) fail("renamed prefix gets a different verdict");
        if (depth == 1 && pred.holds(permute(prefix, p)) != base_holds) {
          fail("holds() changes under renaming");
        }
      }
      if (depth < rounds && base != StepVerdict::kSatisfiedForever) {
        rec(depth + 1);
      }
      for (auto& e : evals) e->pop_round();
      prefix.pop_round();

      int i = 0;
      while (i < n && digits[static_cast<std::size_t>(i)] == max_mask) {
        digits[static_cast<std::size_t>(i)] = 0;
        ++i;
      }
      if (i == n) return;
      ++digits[static_cast<std::size_t>(i)];
    }
  };
  rec(1);
  EXPECT_EQ(failures, 0) << pred.name();
}

/// Seeded push/pop walk of `steps` steps up to depth `horizon`, each
/// D(i,r) uniform over every set except S: after every push the verdict
/// must agree with holds() on the pushed prefix. With
/// `retract_terminal`, a push that ends the search below it (violated or
/// satisfied forever) is popped again at once, as the DFS backtracks;
/// without, the walk keeps descending, as it does under non-prunable
/// predicates.
inline void check_random_walk(const Predicate& pred, int n, Rng& rng,
                              Round horizon, int steps,
                              bool retract_terminal) {
  std::unique_ptr<StepEvaluator> eval = pred.evaluator();
  eval->begin(n, horizon);
  FaultPattern prefix(n);
  std::vector<std::uint64_t> d(static_cast<std::size_t>(n));
  for (int step = 0; step < steps; ++step) {
    if (prefix.rounds() > 0 &&
        (prefix.rounds() >= horizon || rng.below(4) == 0)) {
      eval->pop_round();
      prefix.pop_round();
      continue;
    }
    for (std::uint64_t& w : d) w = rng.below(full_mask(n));
    const StepVerdict v = eval->push_round(d.data());
    prefix.append(d.data());
    EXPECT_EQ(v != StepVerdict::kViolatedForever, pred.holds(prefix))
        << pred.name() << " n=" << n << " step=" << step << "\n"
        << prefix.to_string();
    if (retract_terminal && v != StepVerdict::kSatisfiedSoFar) {
      eval->pop_round();
      prefix.pop_round();
    }
  }
}

}  // namespace rrfd::core
