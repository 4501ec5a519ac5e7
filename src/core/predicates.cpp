#include "core/predicates.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/words.h"
#include "util/str.h"

namespace rrfd::core {
namespace {

// ---------------------------------------------------------------------------
// Incremental evaluators
//
// Each evaluator keeps a stack of per-depth summaries so pop_round() is an
// O(1) truncation; push_round() is O(n) word algebra over d[i] =
// D(i,r).bits(). Verdicts are exact at every depth: kViolatedForever iff
// the pushed prefix violates the predicate (which, for these zoo
// predicates, all extensions then do too), kSatisfiedForever only when no
// legal continuation can violate it.
//
// The word cores are written from the predicate's definition, NOT by
// delegating to holds(): the conformance suites hold each one against the
// set-algebra holds() below on every prefix.
// ---------------------------------------------------------------------------

/// Base for constraints that are a conjunction of independent per-round
/// checks: the only state is "has any pushed round violated".
class PerRoundEvaluator : public StepEvaluator {
 public:
  void begin(int n, Round /*total_rounds*/) override {
    n_ = n;
    viol_.assign(1, 0);
  }

  StepVerdict push_round(const std::uint64_t* d) override {
    const bool violated = viol_.back() != 0 || violates(d);
    viol_.push_back(violated ? 1 : 0);
    if (violated) return StepVerdict::kViolatedForever;
    return vacuous() ? StepVerdict::kSatisfiedForever
                     : StepVerdict::kSatisfiedSoFar;
  }

  void pop_round() override { viol_.pop_back(); }

  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    // The only state is the sticky violated bit; vacuity is a constant
    // of (parameters, n) and needs no bytes.
    statekey::append_u8(out, viol_.back() != 0 ? 0xFF : 0x00);
    return true;
  }

 protected:
  /// The per-round check: d[i] = D(i,r).bits(), n_ words.
  virtual bool violates(const std::uint64_t* d) const = 0;

  /// True when no legal round (every D a proper subset of S) can violate
  /// the constraint; the verdict is then kSatisfiedForever.
  virtual bool vacuous() const { return false; }

  int n_ = 0;

 private:
  std::vector<char> viol_;
};

class NoSelfSuspicionEvaluator final : public StepEvaluator {
 public:
  explicit NoSelfSuspicionEvaluator(bool exempt) : exempt_(exempt) {}

  void begin(int n, Round /*total_rounds*/) override {
    n_ = n;
    states_.clear();
    states_.push_back({0, false});
  }

  StepVerdict push_round(const std::uint64_t* d) override {
    const State& prev = states_.back();
    // diag bit i <=> p_i in D(i,r); a violation is a diagonal bit outside
    // the exemption mask (empty when !exempt_).
    std::uint64_t diag = 0;
    std::uint64_t u = 0;
    for (int i = 0; i < n_; ++i) {
      diag |= (d[i] >> i & 1) << i;
      u |= d[i];
    }
    const std::uint64_t exempt_mask = exempt_ ? prev.announced : 0;
    const bool violated = prev.violated || (diag & ~exempt_mask) != 0;
    const std::uint64_t announced = prev.announced | u;
    // Once everybody has been announced, every future self-suspicion is
    // exempt: the predicate can no longer be violated.
    const bool exhausted = exempt_ && announced == full_mask(n_);
    states_.push_back({announced, violated});
    if (violated) return StepVerdict::kViolatedForever;
    return exhausted ? StepVerdict::kSatisfiedForever
                     : StepVerdict::kSatisfiedSoFar;
  }

  void pop_round() override { states_.pop_back(); }

  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    // Violation is sticky, so every violated state collapses to one tag.
    // The announced set only matters under the exemption; without it the
    // future depends on nothing but the violated bit.
    const State& s = states_.back();
    if (s.violated) {
      statekey::append_u8(out, 0xFF);
    } else {
      statekey::append_u8(out, 0x00);
      if (exempt_) statekey::append_u64(out, s.announced);
    }
    return true;
  }

 private:
  struct State {
    std::uint64_t announced;  ///< cumulative union of the pushed rounds
    bool violated;
  };
  bool exempt_;
  int n_ = 0;
  std::vector<State> states_;
};

class CumulativeFaultBoundEvaluator final : public StepEvaluator {
 public:
  explicit CumulativeFaultBoundEvaluator(int f) : f_(f) {}

  void begin(int n, Round /*total_rounds*/) override {
    n_ = n;
    cums_.assign(1, 0);
  }

  StepVerdict push_round(const std::uint64_t* d) override {
    std::uint64_t cum = cums_.back();
    for (int i = 0; i < n_; ++i) cum |= d[i];
    cums_.push_back(cum);
    if (std::popcount(cum) > f_) return StepVerdict::kViolatedForever;
    // With f >= n the bound can never be exceeded.
    return f_ >= n_ ? StepVerdict::kSatisfiedForever
                    : StepVerdict::kSatisfiedSoFar;
  }

  void pop_round() override { cums_.pop_back(); }

  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    // The cumulative union only grows along a suffix, so an over-budget
    // union is absorbing and collapses to one tag.
    const std::uint64_t cum = cums_.back();
    if (std::popcount(cum) > f_) {
      statekey::append_u8(out, 0xFF);
    } else {
      statekey::append_u8(out, 0x00);
      statekey::append_u64(out, cum);
    }
    return true;
  }

 private:
  int f_;
  int n_ = 0;
  std::vector<std::uint64_t> cums_;
};

class CrashMonotonicityEvaluator final : public StepEvaluator {
 public:
  void begin(int n, Round /*total_rounds*/) override {
    n_ = n;
    states_.clear();
    // Empty sentinel union: round 1 has no predecessor, and the empty set
    // is a subset of everything, so the first check is vacuous.
    states_.push_back({0, false});
  }

  StepVerdict push_round(const std::uint64_t* d) override {
    const State& prev = states_.back();
    const std::uint64_t must = prev.round_union;
    std::uint64_t missing = 0;  // announced-last-round bits absent from some D
    std::uint64_t u = 0;
    for (int i = 0; i < n_; ++i) {
      missing |= must & ~d[i];
      u |= d[i];
    }
    const bool violated = prev.violated || missing != 0;
    states_.push_back({u, violated});
    return violated ? StepVerdict::kViolatedForever
                    : StepVerdict::kSatisfiedSoFar;
  }

  void pop_round() override { states_.pop_back(); }

  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    const State& s = states_.back();
    if (s.violated) {
      statekey::append_u8(out, 0xFF);  // sticky
    } else {
      statekey::append_u8(out, 0x00);
      statekey::append_u64(out, s.round_union);
    }
    return true;
  }

 private:
  struct State {
    std::uint64_t round_union;  ///< union of the most recently pushed round
    bool violated;
  };
  int n_ = 0;
  std::vector<State> states_;
};

class PerRoundFaultBoundEvaluator final : public PerRoundEvaluator {
 public:
  explicit PerRoundFaultBoundEvaluator(int f) : f_(f) {}

 protected:
  bool violates(const std::uint64_t* d) const override {
    for (int i = 0; i < n_; ++i) {
      if (std::popcount(d[i]) > f_) return true;
    }
    return false;
  }
  // |D| <= n-1 always (D = S is structurally excluded).
  bool vacuous() const override { return f_ >= n_ - 1; }

 private:
  int f_;
};

class SomeoneHeardByAllEvaluator final : public PerRoundEvaluator {
 protected:
  bool violates(const std::uint64_t* d) const override {
    std::uint64_t u = 0;
    for (int i = 0; i < n_; ++i) u |= d[i];
    return u == full_mask(n_);
  }
  bool vacuous() const override { return n_ == 1; }
};

class NoMutualMissEvaluator final : public PerRoundEvaluator {
 protected:
  bool violates(const std::uint64_t* d) const override {
    // Bit-scan row i and test the transposed bit: a mutual miss is a
    // symmetric pair (bit j of d[i], bit i of d[j]) both set.
    for (int i = 0; i < n_; ++i) {
      for (std::uint64_t s = d[i]; s != 0; s &= s - 1) {
        const int j = std::countr_zero(s);
        if ((d[j] >> i & 1) != 0) return true;
      }
    }
    return false;
  }
  bool vacuous() const override { return n_ == 1; }
};

class ContainmentChainEvaluator final : public PerRoundEvaluator {
 protected:
  bool violates(const std::uint64_t* d) const override {
    // a \subseteq b  <=>  (a & ~b) == 0; a chain is pairwise one-way
    // containment.
    for (int i = 0; i < n_; ++i) {
      for (int j = i + 1; j < n_; ++j) {
        if ((d[i] & ~d[j]) != 0 && (d[j] & ~d[i]) != 0) return true;
      }
    }
    return false;
  }
  bool vacuous() const override { return n_ == 1; }
};

class ImmortalProcessEvaluator final : public StepEvaluator {
 public:
  void begin(int n, Round /*total_rounds*/) override {
    n_ = n;
    cums_.assign(1, 0);
  }

  StepVerdict push_round(const std::uint64_t* d) override {
    std::uint64_t cum = cums_.back();
    for (int i = 0; i < n_; ++i) cum |= d[i];
    cums_.push_back(cum);
    return cum == full_mask(n_) ? StepVerdict::kViolatedForever
                                : StepVerdict::kSatisfiedSoFar;
  }

  void pop_round() override { cums_.pop_back(); }

  bool state_bytes(std::vector<std::uint8_t>& out) const override {
    const std::uint64_t cum = cums_.back();
    if (cum == full_mask(n_)) {
      statekey::append_u8(out, 0xFF);  // everyone announced: sticky
    } else {
      statekey::append_u8(out, 0x00);
      statekey::append_u64(out, cum);
    }
    return true;
  }

 private:
  int n_ = 0;
  std::vector<std::uint64_t> cums_;
};

class KUncertaintyEvaluator final : public PerRoundEvaluator {
 public:
  explicit KUncertaintyEvaluator(int k) : k_(k) {}

 protected:
  bool violates(const std::uint64_t* d) const override {
    // Disagreement = OR \ AND of the round's announcements.
    std::uint64_t any = 0;
    std::uint64_t every = full_mask(n_);
    for (int i = 0; i < n_; ++i) {
      any |= d[i];
      every &= d[i];
    }
    return std::popcount(any & ~every) >= k_;
  }
  // The disagreement set has at most n members.
  bool vacuous() const override { return k_ > n_; }

 private:
  int k_;
};

class EqualAnnouncementsEvaluator final : public PerRoundEvaluator {
 protected:
  bool violates(const std::uint64_t* d) const override {
    // XOR against the first row folds all inequality into one word.
    std::uint64_t diff = 0;
    for (int i = 1; i < n_; ++i) diff |= d[i] ^ d[0];
    return diff != 0;
  }
  bool vacuous() const override { return n_ == 1; }
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

class QuorumSkewEvaluator final : public PerRoundEvaluator {
 public:
  QuorumSkewEvaluator(int t, int f) : t_(t), f_(f) {}

 protected:
  bool violates(const std::uint64_t* d) const override {
    // Same minimal-witness argument as quorum_round_ok, over popcounts.
    int oversized = 0;
    for (int i = 0; i < n_; ++i) {
      const int sz = std::popcount(d[i]);
      if (sz > t_) return true;
      if (sz > f_) ++oversized;
    }
    return oversized > t_;
  }
  // With f >= n-1 nobody is ever oversized (and t > f >= |D|).
  bool vacuous() const override { return f_ >= n_ - 1; }

 private:
  int t_;
  int f_;
};

class NeverFaultyEvaluator final : public PerRoundEvaluator {
 protected:
  bool violates(const std::uint64_t* d) const override {
    std::uint64_t u = 0;
    for (int i = 0; i < n_; ++i) u |= d[i];
    return u != 0;
  }
  // n = 1: the only proper subset of S is the empty set.
  bool vacuous() const override { return n_ == 1; }
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
  return std::make_unique<NoSelfSuspicionEvaluator>(exempt_announced_);
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
  return std::make_unique<CumulativeFaultBoundEvaluator>(f_);
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
  return std::make_unique<CrashMonotonicityEvaluator>();
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
  return std::make_unique<PerRoundFaultBoundEvaluator>(f_);
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
  return std::make_unique<SomeoneHeardByAllEvaluator>();
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
  return std::make_unique<NoMutualMissEvaluator>();
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
  return std::make_unique<ContainmentChainEvaluator>();
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
  return std::make_unique<ImmortalProcessEvaluator>();
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
  return std::make_unique<KUncertaintyEvaluator>(k_);
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
  return std::make_unique<EqualAnnouncementsEvaluator>();
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
  return std::make_unique<QuorumSkewEvaluator>(t_, f_);
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
  return std::make_unique<NeverFaultyEvaluator>();
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
