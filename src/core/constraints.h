// One incremental evaluator per constraint, shared by the model zoo
// (core/predicates.h) and the Heard-Of compiler (ho/compile.h).
//
// Seven zoo primitives restate a Heard-Of primitive (Shimi-Hurault-
// Queinnec's elementary patterns); each is implemented once, here. A
// round-local constraint is a word check with a vacuity rule (LossCap,
// MobileCap, SelfDelivery), run as a RoundLocal rule; a stateful one is a
// rule of its own (CumulativeCap, CrashMonotone). StackEvaluator runs
// every rule; its non-virtual verdict(), which push_round() returns, is
// what ho's combinator nodes poll.
//
// The word checks are written from the definitions, not from holds():
// the zoo's holds() and ho's holds_range() stay two independent oracles,
// and the conformance suites hold every rule against both on every
// prefix.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/predicate.h"
#include "core/words.h"

namespace rrfd::core {

/// Runs a constraint whose state after a round follows from the state
/// before it and the round's words d[i] = D(i,r).bits(). The states form
/// a stack, one per depth, so pop_round() is an O(1) truncation. `Rule`
/// supplies State (value-initialized: the empty prefix), next(state, d,
/// n), verdict(state, n), key(state, n, out), the canonical state_bytes
/// of a state, and begin(n) if it precomputes anything per n.
template <class Rule>
class StackEvaluator final : public StepEvaluator {
 public:
  explicit StackEvaluator(Rule rule) : rule_(std::move(rule)) {}

  void begin(int n, Round total_rounds) override {
    n_ = n;
    if constexpr (requires { rule_.begin(n); }) rule_.begin(n);
    // A search begins a fresh evaluator per shard: one allocation covers
    // every depth it reaches.
    states_.clear();
    states_.reserve(static_cast<std::size_t>(total_rounds) + 1);
    states_.emplace_back();
  }
  StepVerdict push_round(const std::uint64_t* d) override {
    states_.push_back(rule_.next(states_.back(), d, n_));
    return verdict();
  }
  void pop_round() override { states_.pop_back(); }
  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    rule_.key(states_.back(), n_, out);
    return true;
  }
  /// The verdict on the pushed prefix (the empty one before any push).
  StepVerdict verdict() const { return rule_.verdict(states_.back(), n_); }

 private:
  Rule rule_;
  int n_ = 0;
  std::vector<typename Rule::State> states_;
};

/// The rule of a round-local constraint. `Check` supplies ok(d, n), the
/// check of one round, and vacuous(n), true when no legal round (every D
/// a proper subset of S) fails it. The state is the sticky "some pushed
/// round failed" bit; vacuity is a constant of (check, n) and needs no
/// key bytes.
template <class Check>
struct RoundLocal {
  struct State {
    bool violated = false;
  };
  Check check;
  bool vacuous = false;

  void begin(int n) { vacuous = check.vacuous(n); }
  State next(State s, const std::uint64_t* d, int n) const {
    return {s.violated || !check.ok(d, n)};
  }
  StepVerdict verdict(State s, int /*n*/) const {
    if (s.violated) return StepVerdict::kViolatedForever;
    return vacuous ? StepVerdict::kSatisfiedForever
                   : StepVerdict::kSatisfiedSoFar;
  }
  void key(State s, int /*n*/, std::vector<std::uint8_t>& out) const {
    statekey::append_u8(out, s.violated ? 0xFF : 0x00);
  }
};

/// The key of a state whose violation is sticky: one tag byte once
/// violated (every violated state behaves alike), else a zero tag and the
/// word the future depends on.
inline void sticky_key(bool violated, std::uint64_t word,
                       std::vector<std::uint8_t>& out) {
  statekey::append_u8(out, violated ? 0xFF : 0x00);
  if (!violated) statekey::append_u64(out, word);
}

/// A bound on a number of processes: `k`, or n - k when `all_but`.
struct ProcessBound {
  int k = 0;
  bool all_but = false;
  int at(int n) const { return all_but ? n - k : k; }
};

/// |u| <= cap for a set u of processes of S = {0..n-1}. The caps 0 and
/// n - 1 are one word compare, which keeps NeverFaulty, SomeoneHeardByAll
/// and detector S free of popcounts (a library call without -mpopcnt).
inline bool within(std::uint64_t u, int cap, int n) {
  if (cap == 0) return u == 0;
  if (cap == n - 1) return u != full_mask(n);
  return std::popcount(u) <= cap;
}

/// forall i: |D(i,r)| <= f. PerRoundFaultBound(f), ho loss_cap(f).
struct LossCap {
  int f = 0;
  bool ok(const std::uint64_t* d, int n) const {
    for (int i = 0; i < n; ++i) {
      if (std::popcount(d[i]) > f) return false;
    }
    return true;
  }
  bool vacuous(int n) const { return f >= n - 1; }  // |D| <= n-1: D != S
};

/// |U_i D(i,r)| <= cap. NeverFaulty (cap 0) and SomeoneHeardByAll
/// (cap n - 1); ho mobile(f) and no_partition().
struct MobileCap {
  ProcessBound cap;
  bool ok(const std::uint64_t* d, int n) const {
    std::uint64_t u = 0;
    for (int i = 0; i < n; ++i) u |= d[i];
    return within(u, cap.at(n), n);
  }
  bool vacuous(int n) const {
    return cap.at(n) >= n || n == 1;  // n == 1: every D is empty
  }
};

/// forall i: p_i not in D(i,r). NoSelfSuspicion(false), ho
/// self_delivery().
struct SelfDelivery {
  bool ok(const std::uint64_t* d, int n) const {
    for (int i = 0; i < n; ++i) {
      if ((d[i] >> i) & 1) return false;
    }
    return true;
  }
  bool vacuous(int n) const { return n == 1; }  // the only D is empty
};

/// |U_r U_i D(i,r)| <= cap over the pushed rounds; the state is that
/// cumulative union. CumulativeFaultBound(f) and ImmortalProcess
/// (cap n - 1); ho faulty(f) and kernel(k) (cap n - k).
struct CumulativeCap {
  using State = std::uint64_t;
  ProcessBound bound;

  State next(State u, const std::uint64_t* d, int n) const {
    for (int i = 0; i < n; ++i) u |= d[i];
    return u;
  }
  StepVerdict verdict(State u, int n) const {
    const int cap = bound.at(n);
    if (!within(u, cap, n)) return StepVerdict::kViolatedForever;
    // cap >= n: even the full S stays within the cap.
    return cap >= n ? StepVerdict::kSatisfiedForever
                    : StepVerdict::kSatisfiedSoFar;
  }
  void key(State u, int n, std::vector<std::uint8_t>& out) const {
    // The union only grows along a suffix, so an over-cap union is
    // absorbing.
    sticky_key(!within(u, bound.at(n), n), u, out);
  }
};

/// forall r, k: U_i D(i,r) subseteq D(k,r+1). CrashMonotonicity, ho
/// crash_only().
struct CrashMonotone {
  struct State {
    std::uint64_t round_union = 0;  ///< union of the last pushed round
    bool violated = false;
  };

  State next(State s, const std::uint64_t* d, int n) const {
    // Before round 1 the union is empty, a subset of everything, so the
    // first check is vacuous.
    std::uint64_t missing = 0;  // last round's announcements absent from D
    std::uint64_t u = 0;
    for (int i = 0; i < n; ++i) {
      missing |= s.round_union & ~d[i];
      u |= d[i];
    }
    return {u, s.violated || missing != 0};
  }
  StepVerdict verdict(State s, int /*n*/) const {
    return s.violated ? StepVerdict::kViolatedForever
                      : StepVerdict::kSatisfiedSoFar;
  }
  void key(State s, int /*n*/, std::vector<std::uint8_t>& out) const {
    sticky_key(s.violated, s.round_union, out);  // broken stays broken
  }
};

}  // namespace rrfd::core
