#include "core/predicates.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/words.h"
#include "util/str.h"

namespace rrfd::core {
namespace {

// ---------------------------------------------------------------------------
// Incremental evaluators
//
// Every predicate runs a rule through core/constraints.h's StackEvaluator,
// so pop_round() is an O(1) truncation; push_round() is O(n) word algebra
// over d[i] = D(i,r).bits(). Verdicts are exact at every depth:
// kViolatedForever iff the pushed prefix violates the predicate (which,
// for these zoo predicates, all extensions then do too),
// kSatisfiedForever only when no legal continuation can violate it. The
// primitives with a Heard-Of twin share their rules with ho there; the
// rules and checks below have no twin.
//
// The word cores are written from the predicate's definition, NOT by
// delegating to holds(): the conformance suites hold each one against the
// set-algebra holds() below on every prefix.
// ---------------------------------------------------------------------------

template <class Rule>
std::unique_ptr<StepEvaluator> evaluator_of(Rule rule) {
  return std::make_unique<StackEvaluator<Rule>>(std::move(rule));
}

template <class Check>
std::unique_ptr<StepEvaluator> per_round(Check check) {
  return evaluator_of(RoundLocal<Check>{std::move(check)});
}

/// NoSelfSuspicion(true): self-suspicion is exempt once announced, so the
/// state is the cumulative announced set.
struct ExemptSelfSuspicion {
  struct State {
    std::uint64_t announced = 0;  ///< cumulative union of the pushed rounds
    bool violated = false;
  };

  State next(State s, const std::uint64_t* d, int n) const {
    // diag bit i <=> p_i in D(i,r); a violation is a diagonal bit outside
    // the announced (exempt) mask.
    std::uint64_t diag = 0;
    std::uint64_t u = 0;
    for (int i = 0; i < n; ++i) {
      diag |= (d[i] >> i & 1) << i;
      u |= d[i];
    }
    return {s.announced | u, s.violated || (diag & ~s.announced) != 0};
  }
  StepVerdict verdict(State s, int n) const {
    if (s.violated) return StepVerdict::kViolatedForever;
    // Once everybody has been announced, every future self-suspicion is
    // exempt: the predicate can no longer be violated.
    return s.announced == full_mask(n) ? StepVerdict::kSatisfiedForever
                                       : StepVerdict::kSatisfiedSoFar;
  }
  void key(State s, int /*n*/, std::vector<std::uint8_t>& out) const {
    sticky_key(s.violated, s.announced, out);
  }
};

struct NoMutualMissCheck {
  bool ok(const std::uint64_t* d, int n) const {
    // Bit-scan row i and test the transposed bit: a mutual miss is a
    // symmetric pair (bit j of d[i], bit i of d[j]) both set.
    for (int i = 0; i < n; ++i) {
      for (std::uint64_t s = d[i]; s != 0; s &= s - 1) {
        const int j = std::countr_zero(s);
        if ((d[j] >> i & 1) != 0) return false;
      }
    }
    return true;
  }
  bool vacuous(int n) const { return n == 1; }
};

struct ContainmentChainCheck {
  bool ok(const std::uint64_t* d, int n) const {
    // a \subseteq b  <=>  (a & ~b) == 0; a chain is pairwise one-way
    // containment.
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if ((d[i] & ~d[j]) != 0 && (d[j] & ~d[i]) != 0) return false;
      }
    }
    return true;
  }
  bool vacuous(int n) const { return n == 1; }
};

/// KUncertainty(k); EqualAnnouncements is k = 1.
struct UncertaintyCheck {
  int k;
  bool ok(const std::uint64_t* d, int n) const {
    // Disagreement = OR \ AND of the round's announcements.
    std::uint64_t any = 0;
    std::uint64_t every = full_mask(n);
    for (int i = 0; i < n; ++i) {
      any |= d[i];
      every &= d[i];
    }
    return std::popcount(any & ~every) < k;
  }
  // At most n members disagree, and none at n = 1 (every D is empty).
  bool vacuous(int n) const { return k > n || n == 1; }
};

bool quorum_round_ok(const RoundFaults& round, int t, int f) {
  // The minimal witness Q is exactly the set of processes whose D exceeds
  // f; every member must still respect the bound t.
  int oversized = 0;
  for (const ProcessSet& d : round) {
    if (d.size() > t) return false;
    if (d.size() > f) ++oversized;
  }
  return oversized <= t;
}

struct QuorumSkewCheck {
  int t;
  int f;
  bool ok(const std::uint64_t* d, int n) const {
    // Same minimal-witness argument as quorum_round_ok, over popcounts.
    int oversized = 0;
    for (int i = 0; i < n; ++i) {
      const int sz = std::popcount(d[i]);
      if (sz > t) return false;
      if (sz > f) ++oversized;
    }
    return oversized <= t;
  }
  // With f >= n-1 nobody is ever oversized (and t > f >= |D|).
  bool vacuous(int n) const { return f >= n - 1; }
};

}  // namespace

// --------------------------------------------------------------------------
// NoSelfSuspicion
// --------------------------------------------------------------------------

std::string NoSelfSuspicion::name() const {
  return exempt_announced_ ? "no-self-suspicion(exempt-announced)"
                           : "no-self-suspicion";
}

std::string NoSelfSuspicion::description() const {
  return "forall i,r: p_i not in D(i,r)" +
         std::string(exempt_announced_
                         ? " unless p_i was announced in an earlier round"
                         : "");
}

bool NoSelfSuspicion::holds(const FaultPattern& pattern) const {
  ProcessSet announced(pattern.n());
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    for (ProcId i = 0; i < pattern.n(); ++i) {
      if (pattern.d(i, r).contains(i) &&
          !(exempt_announced_ && announced.contains(i))) {
        return false;
      }
    }
    announced |= pattern.round_union(r);
  }
  return true;
}

std::unique_ptr<StepEvaluator> NoSelfSuspicion::evaluator() const {
  if (exempt_announced_) return evaluator_of(ExemptSelfSuspicion{});
  return per_round(SelfDelivery{});
}

// --------------------------------------------------------------------------
// CumulativeFaultBound
// --------------------------------------------------------------------------

CumulativeFaultBound::CumulativeFaultBound(int f) : f_(f) {
  RRFD_REQUIRE(f >= 0);
}

std::string CumulativeFaultBound::name() const {
  return cat("cumulative-fault-bound(f=", f_, ")");
}

std::string CumulativeFaultBound::description() const {
  return cat("|U_{r,i} D(i,r)| <= ", f_,
             " -- at most f distinct processes ever announced");
}

bool CumulativeFaultBound::holds(const FaultPattern& pattern) const {
  return pattern.cumulative_union().size() <= f_;
}

std::unique_ptr<StepEvaluator> CumulativeFaultBound::evaluator() const {
  return evaluator_of(CumulativeCap{{f_}});
}

// --------------------------------------------------------------------------
// CrashMonotonicity
// --------------------------------------------------------------------------

std::string CrashMonotonicity::name() const { return "crash-monotonicity"; }

std::string CrashMonotonicity::description() const {
  return "forall r,k: U_i D(i,r) subseteq D(k,r+1) -- announcements are "
         "permanent and universal from the next round";
}

bool CrashMonotonicity::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r < pattern.rounds(); ++r) {
    const ProcessSet announced = pattern.round_union(r);
    for (ProcId k = 0; k < pattern.n(); ++k) {
      if (!announced.subset_of(pattern.d(k, r + 1))) return false;
    }
  }
  return true;
}

std::unique_ptr<StepEvaluator> CrashMonotonicity::evaluator() const {
  return evaluator_of(CrashMonotone{});
}

// --------------------------------------------------------------------------
// PerRoundFaultBound
// --------------------------------------------------------------------------

PerRoundFaultBound::PerRoundFaultBound(int f) : f_(f) {
  RRFD_REQUIRE(f >= 0);
}

std::string PerRoundFaultBound::name() const {
  return cat("per-round-fault-bound(f=", f_, ")");
}

std::string PerRoundFaultBound::description() const {
  return cat("forall i,r: |D(i,r)| <= ", f_,
             " -- each process misses at most f others per round");
}

bool PerRoundFaultBound::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    for (ProcId i = 0; i < pattern.n(); ++i) {
      if (pattern.d(i, r).size() > f_) return false;
    }
  }
  return true;
}

std::unique_ptr<StepEvaluator> PerRoundFaultBound::evaluator() const {
  return per_round(LossCap{f_});
}

// --------------------------------------------------------------------------
// SomeoneHeardByAll
// --------------------------------------------------------------------------

std::string SomeoneHeardByAll::name() const { return "someone-heard-by-all"; }

std::string SomeoneHeardByAll::description() const {
  return "forall r: |U_i D(i,r)| < n -- each round some process is "
         "announced to nobody";
}

bool SomeoneHeardByAll::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    if (pattern.round_union(r).size() >= pattern.n()) return false;
  }
  return true;
}

std::unique_ptr<StepEvaluator> SomeoneHeardByAll::evaluator() const {
  return per_round(MobileCap{{1, /*all_but=*/true}});
}

// --------------------------------------------------------------------------
// NoMutualMiss
// --------------------------------------------------------------------------

std::string NoMutualMiss::name() const { return "no-mutual-miss"; }

std::string NoMutualMiss::description() const {
  return "forall r,i,j: p_j in D(i,r) => p_i not in D(j,r)";
}

bool NoMutualMiss::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    for (ProcId i = 0; i < pattern.n(); ++i) {
      for (ProcId j : pattern.d(i, r).members()) {
        if (pattern.d(j, r).contains(i)) return false;
      }
    }
  }
  return true;
}

std::unique_ptr<StepEvaluator> NoMutualMiss::evaluator() const {
  return per_round(NoMutualMissCheck{});
}

// --------------------------------------------------------------------------
// ContainmentChain
// --------------------------------------------------------------------------

std::string ContainmentChain::name() const { return "containment-chain"; }

std::string ContainmentChain::description() const {
  return "forall r,i,j: D(i,r) subseteq D(j,r) or D(j,r) subseteq D(i,r)";
}

bool ContainmentChain::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    const RoundFaults& round = pattern.round(r);
    for (ProcId i = 0; i < pattern.n(); ++i) {
      const ProcessSet& di = round[static_cast<std::size_t>(i)];
      for (ProcId j = i + 1; j < pattern.n(); ++j) {
        const ProcessSet& dj = round[static_cast<std::size_t>(j)];
        if (!di.subset_of(dj) && !dj.subset_of(di)) return false;
      }
    }
  }
  return true;
}

std::unique_ptr<StepEvaluator> ContainmentChain::evaluator() const {
  return per_round(ContainmentChainCheck{});
}

// --------------------------------------------------------------------------
// ImmortalProcess
// --------------------------------------------------------------------------

std::string ImmortalProcess::name() const { return "immortal-process"; }

std::string ImmortalProcess::description() const {
  return "exists p_j never in any D(i,r) -- weak accuracy of detector S";
}

bool ImmortalProcess::holds(const FaultPattern& pattern) const {
  return pattern.cumulative_union().size() < pattern.n();
}

std::unique_ptr<StepEvaluator> ImmortalProcess::evaluator() const {
  return evaluator_of(CumulativeCap{{1, /*all_but=*/true}});
}

// --------------------------------------------------------------------------
// KUncertainty
// --------------------------------------------------------------------------

KUncertainty::KUncertainty(int k) : k_(k) { RRFD_REQUIRE(k >= 1); }

std::string KUncertainty::name() const {
  return cat("k-uncertainty(k=", k_, ")");
}

std::string KUncertainty::description() const {
  return cat("forall r: |U_i D(i,r) \\ ^_i D(i,r)| < ", k_,
             " -- per-round disagreement among announcements below k");
}

bool KUncertainty::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    const ProcessSet disagreement =
        pattern.round_union(r) - pattern.round_intersection(r);
    if (disagreement.size() >= k_) return false;
  }
  return true;
}

std::unique_ptr<StepEvaluator> KUncertainty::evaluator() const {
  return per_round(UncertaintyCheck{k_});
}

// --------------------------------------------------------------------------
// EqualAnnouncements
// --------------------------------------------------------------------------

std::string EqualAnnouncements::name() const { return "equal-announcements"; }

std::string EqualAnnouncements::description() const {
  return "forall r,i,j: D(i,r) == D(j,r) -- equation (5)";
}

bool EqualAnnouncements::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    const RoundFaults& round = pattern.round(r);
    for (ProcId i = 1; i < pattern.n(); ++i) {
      if (round[static_cast<std::size_t>(i)] != round[0]) return false;
    }
  }
  return true;
}

std::unique_ptr<StepEvaluator> EqualAnnouncements::evaluator() const {
  return per_round(UncertaintyCheck{1});
}

// --------------------------------------------------------------------------
// QuorumSkew
// --------------------------------------------------------------------------

QuorumSkew::QuorumSkew(int t, int f) : t_(t), f_(f) {
  RRFD_REQUIRE(0 <= f && f < t);
}

std::string QuorumSkew::name() const {
  return cat("quorum-skew(t=", t_, ",f=", f_, ")");
}

std::string QuorumSkew::description() const {
  return cat("each round exists Q, |Q| <= ", t_, ": outside Q |D| <= ", f_,
             ", inside Q |D| <= ", t_);
}

bool QuorumSkew::holds(const FaultPattern& pattern) const {
  for (Round r = 1; r <= pattern.rounds(); ++r) {
    if (!quorum_round_ok(pattern.round(r), t_, f_)) return false;
  }
  return true;
}

std::unique_ptr<StepEvaluator> QuorumSkew::evaluator() const {
  return per_round(QuorumSkewCheck{t_, f_});
}

// --------------------------------------------------------------------------
// NeverFaulty
// --------------------------------------------------------------------------

std::string NeverFaulty::name() const { return "never-faulty"; }

std::string NeverFaulty::description() const {
  return "forall i,r: D(i,r) empty -- the fault-free synchronous system";
}

bool NeverFaulty::holds(const FaultPattern& pattern) const {
  return pattern.cumulative_union().empty();
}

std::unique_ptr<StepEvaluator> NeverFaulty::evaluator() const {
  return per_round(MobileCap{{0}});
}

// --------------------------------------------------------------------------
// Named systems
// --------------------------------------------------------------------------

PredicatePtr sync_omission(int f) {
  return all_of(cat("sync-omission(f=", f, ")"),
                {std::make_shared<NoSelfSuspicion>(),
                 std::make_shared<CumulativeFaultBound>(f)});
}

PredicatePtr sync_crash(int f) {
  return all_of(cat("sync-crash(f=", f, ")"),
                {std::make_shared<NoSelfSuspicion>(/*exempt_announced=*/true),
                 std::make_shared<CumulativeFaultBound>(f),
                 std::make_shared<CrashMonotonicity>()});
}

PredicatePtr async_message_passing(int f) {
  return all_of(cat("async-mp(f=", f, ")"),
                {std::make_shared<PerRoundFaultBound>(f)});
}

PredicatePtr swmr_shared_memory(int f) {
  return all_of(cat("swmr(f=", f, ")"),
                {std::make_shared<PerRoundFaultBound>(f),
                 std::make_shared<SomeoneHeardByAll>()});
}

PredicatePtr swmr_shared_memory_alt(int f) {
  return all_of(cat("swmr-alt(f=", f, ")"),
                {std::make_shared<PerRoundFaultBound>(f),
                 std::make_shared<NoMutualMiss>(),
                 std::make_shared<SomeoneHeardByAll>()});
}

PredicatePtr atomic_snapshot(int f) {
  return all_of(cat("atomic-snapshot(f=", f, ")"),
                {std::make_shared<PerRoundFaultBound>(f),
                 std::make_shared<NoSelfSuspicion>(),
                 std::make_shared<ContainmentChain>()});
}

PredicatePtr detector_s() {
  return all_of("detector-S", {std::make_shared<ImmortalProcess>()});
}

PredicatePtr k_uncertainty(int k) {
  return all_of(cat("k-uncertainty(k=", k, ")"),
                {std::make_shared<KUncertainty>(k)});
}

PredicatePtr equal_announcements() {
  return all_of("equal-announcements", {std::make_shared<EqualAnnouncements>()});
}

PredicatePtr quorum_skew(int t, int f) {
  return all_of(cat("quorum-skew(t=", t, ",f=", f, ")"),
                {std::make_shared<QuorumSkew>(t, f)});
}

}  // namespace rrfd::core
