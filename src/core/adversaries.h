// Concrete adversaries for every model in the predicate zoo.
//
// Each adversary's emitted patterns satisfy the corresponding predicate
// *by construction*; tests/core/adversaries_test.cpp re-validates that
// against the declarative predicates for thousands of seeded runs. The
// strength knobs (miss probabilities, fault budgets) control how hard the
// adversary pushes inside its envelope.
#pragma once

#include "core/adversary.h"
#include "util/rng.h"

namespace rrfd::core {

/// Replays a fixed pattern; after it is exhausted, emits all-empty rounds
/// (a benign tail). The raw material for hand-crafted counterexamples.
class ScriptedAdversary final : public Adversary {
 public:
  explicit ScriptedAdversary(FaultPattern pattern);

  int n() const override { return pattern_.n(); }
  std::string name() const override { return "scripted"; }
  void next_round(std::uint64_t* out) override;
  void reset() override { round_ = 0; }

 private:
  FaultPattern pattern_;
  Round round_ = 0;
};

/// Never announces anyone (fault-free synchrony).
class BenignAdversary final : public Adversary {
 public:
  explicit BenignAdversary(int n);

  int n() const override { return n_; }
  std::string name() const override { return "benign"; }
  void next_round(std::uint64_t* out) override;
  void reset() override {}

 private:
  int n_;
};

/// Item 1 -- synchronous send-omission, at most f faulty senders.
/// Picks a faulty pool F (|F| <= f) up front; each round each observer
/// misses an independent random subset of F \ {self}.
class OmissionAdversary final : public Adversary {
 public:
  OmissionAdversary(int n, int f, std::uint64_t seed, double miss_prob = 0.5);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override;

  /// The pool of potentially-faulty senders chosen at construction.
  const ProcessSet& faulty_pool() const { return pool_; }

 private:
  int n_;
  int f_;
  std::uint64_t seed_;
  double miss_prob_;
  ProcessSet pool_;
  Rng rng_;
};

/// Item 2 -- synchronous crash, at most f crashes. Each round, processes
/// from the remaining budget may crash (probability crash_prob each); a
/// crashing process is seen as faulty by a random nonempty-complement
/// subset of observers in its crash round, and by everyone (including
/// itself, which has halted) afterwards.
class CrashAdversary final : public Adversary {
 public:
  CrashAdversary(int n, int f, std::uint64_t seed, double crash_prob = 0.3);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override;

  /// Processes announced (crashed) so far.
  const ProcessSet& announced() const { return announced_; }

 private:
  int n_;
  int f_;
  std::uint64_t seed_;
  double crash_prob_;
  Rng rng_;
  ProcessSet announced_;
};

/// Item 3 -- asynchronous message passing: each round, each process misses
/// an independent random set of at most f others (self allowed: a process
/// can be "late to its own round").
class AsyncAdversary final : public Adversary {
 public:
  AsyncAdversary(int n, int f, std::uint64_t seed);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override;

 private:
  int n_;
  int f_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Item 4 -- SWMR shared memory: asynchronous bound f plus "someone heard
/// by all": a random process per round is exempt from all announcements.
class SwmrAdversary final : public Adversary {
 public:
  SwmrAdversary(int n, int f, std::uint64_t seed);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override;

 private:
  int n_;
  int f_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Item 5 -- Atomic-Snapshot memory: each round is a random *immediate
/// snapshot*: an ordered partition B_1,...,B_m of S with |B_1| >= n - f;
/// a process in B_l sees exactly B_1 U ... U B_l, i.e. its D set is the
/// complement of its prefix. Containment and no-self-suspicion hold by
/// construction.
class SnapshotAdversary final : public Adversary {
 public:
  SnapshotAdversary(int n, int f, std::uint64_t seed);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override;

 private:
  int n_;
  int f_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Theorem 3.1 -- k-uncertainty: each round, a common base set B is
/// announced to everyone and an uncertainty set U (|U| < k, disjoint from
/// B) is announced to a random subset of observers each.
class KUncertaintyAdversary final : public Adversary {
 public:
  KUncertaintyAdversary(int n, int k, std::uint64_t seed);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override;

 private:
  int n_;
  int k_;
  std::uint64_t seed_;
  Rng rng_;
};

/// Item 6 -- detector S: like AsyncAdversary with f = n-1 but one process
/// (chosen at construction) is never announced to anyone.
class ImmortalAdversary final : public Adversary {
 public:
  ImmortalAdversary(int n, std::uint64_t seed, ProcId immortal = -1);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override;

  ProcId immortal() const { return immortal_; }

 private:
  int n_;
  std::uint64_t seed_;
  ProcId immortal_;
  bool auto_immortal_;  ///< was immortal_ drawn from the seed? reset()
                        ///< must then replay that draw (see .cpp)
  Rng rng_;
};

/// Equation (5) -- equal announcements: one random proper subset per round,
/// told to everyone.
class EqualAdversary final : public Adversary {
 public:
  EqualAdversary(int n, std::uint64_t seed, double miss_prob = 0.3);

  int n() const override { return n_; }
  std::string name() const override { return "equal"; }
  void next_round(std::uint64_t* out) override;
  void reset() override;

 private:
  int n_;
  std::uint64_t seed_;
  double miss_prob_;
  Rng rng_;
};

/// The Chaudhuri-Herlihy-Lynch-Tuttle style lower-bound construction used
/// by Corollaries 4.2/4.4: k parallel crash chains, each smuggling one
/// small value forward through a single survivor per round. Over
/// R = floor(f/k) rounds it crashes k processes per round (<= f total) and
/// forces flood-min truncated at R rounds to emit k+1 distinct decisions.
///
/// Layout (requires n >= k*R + k + 1):
///   chain m (0 <= m < k) crashers: c_{m,j} = j*k + m for 0 <= j < R
///   chain m terminal (survivor):   s_m = k*R + m
/// In round j+1, crasher c_{m,j} is missed by everyone except its
/// successor (c_{m,j+1}, or s_m in the last round); crashes are announced
/// to all from the following round, so the pattern is a valid sync-crash(f)
/// pattern.
class ChainAdversary final : public Adversary {
 public:
  ChainAdversary(int n, int f, int k);

  int n() const override { return n_; }
  std::string name() const override;
  void next_round(std::uint64_t* out) override;
  void reset() override { round_ = 0; }

  int rounds() const { return rounds_; }

  /// The input assignment that realizes the violation: chain-m heads get
  /// value m, everyone else gets k.
  std::vector<int> violating_inputs() const;

  /// Crasher of chain m in (1-based) round j.
  ProcId crasher(int m, Round j) const;

  /// Surviving terminal of chain m.
  ProcId terminal(int m) const { return k_ * rounds_ + m; }

 private:
  int n_;
  int f_;
  int k_;
  int rounds_;  // R = floor(f/k)
  Round round_ = 0;
};

}  // namespace rrfd::core
