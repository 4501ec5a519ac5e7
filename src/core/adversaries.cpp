#include "core/adversaries.h"

#include <algorithm>

#include "util/str.h"

namespace rrfd::core {
namespace {

/// Random subset of `candidates` with each member kept with probability p.
ProcessSet random_subset(Rng& rng, const ProcessSet& candidates, double p) {
  ProcessSet out(candidates.n());
  for (ProcId q : candidates.members()) {
    if (rng.chance(p)) out.add(q);
  }
  return out;
}

/// Random subset of `candidates` of size exactly `size`.
ProcessSet random_subset_of_size(Rng& rng, const ProcessSet& candidates,
                                 int size) {
  RRFD_REQUIRE(size <= candidates.size());
  std::vector<ProcId> pool = candidates.members();
  rng.shuffle(pool);
  ProcessSet out(candidates.n());
  for (int i = 0; i < size; ++i) out.add(pool[static_cast<std::size_t>(i)]);
  return out;
}

}  // namespace

// --------------------------------------------------------------------------
// ScriptedAdversary
// --------------------------------------------------------------------------

ScriptedAdversary::ScriptedAdversary(FaultPattern pattern)
    : pattern_(std::move(pattern)) {}

void ScriptedAdversary::next_round(std::uint64_t* out) {
  ++round_;
  if (round_ <= pattern_.rounds()) {
    std::copy_n(pattern_.words(round_), pattern_.n(), out);
    return;
  }
  std::fill_n(out, pattern_.n(), 0);  // benign tail
}

// --------------------------------------------------------------------------
// BenignAdversary
// --------------------------------------------------------------------------

BenignAdversary::BenignAdversary(int n) : n_(n) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
}

void BenignAdversary::next_round(std::uint64_t* out) {
  std::fill_n(out, n_, 0);
}

// --------------------------------------------------------------------------
// OmissionAdversary
// --------------------------------------------------------------------------

OmissionAdversary::OmissionAdversary(int n, int f, std::uint64_t seed,
                                     double miss_prob)
    : n_(n),
      f_(f),
      seed_(seed),
      miss_prob_(miss_prob),
      pool_(n),
      rng_(seed) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(0 <= f && f < n);
  pool_ = random_subset_of_size(rng_, ProcessSet::all(n_), f_);
}

std::string OmissionAdversary::name() const {
  return cat("omission(f=", f_, ")");
}

void OmissionAdversary::reset() {
  rng_.reseed(seed_);
  pool_ = random_subset_of_size(rng_, ProcessSet::all(n_), f_);
}

void OmissionAdversary::next_round(std::uint64_t* out) {
  for (ProcId i = 0; i < n_; ++i) {
    out[i] = random_subset(rng_, pool_.without(i), miss_prob_).bits();
  }
}

// --------------------------------------------------------------------------
// CrashAdversary
// --------------------------------------------------------------------------

CrashAdversary::CrashAdversary(int n, int f, std::uint64_t seed,
                               double crash_prob)
    : n_(n),
      f_(f),
      seed_(seed),
      crash_prob_(crash_prob),
      rng_(seed),
      announced_(n) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(0 <= f && f < n);
}

std::string CrashAdversary::name() const { return cat("crash(f=", f_, ")"); }

void CrashAdversary::reset() {
  rng_.reseed(seed_);
  announced_ = ProcessSet::none(n_);
}

void CrashAdversary::next_round(std::uint64_t* out) {
  // Pick the processes crashing this round (within the remaining budget).
  ProcessSet newly(n_);
  for (ProcId p : announced_.complement().members()) {
    if (announced_.size() + newly.size() >= f_) break;
    if (rng_.chance(crash_prob_)) newly.add(p);
  }

  // A crashing process is missed by a random subset of the *other*
  // processes in its crash round (partial announcement -- the essence of a
  // crash in a round-based system), and by everyone afterwards.
  std::vector<ProcessSet> missed_by;  // per new crasher, who misses it
  std::vector<ProcId> crashers = newly.members();
  missed_by.reserve(crashers.size());
  for (ProcId c : crashers) {
    missed_by.push_back(random_subset(rng_, ProcessSet::all(n_).without(c),
                                      /*p=*/0.6));
  }
  for (ProcId i = 0; i < n_; ++i) {
    ProcessSet d = announced_;
    for (std::size_t idx = 0; idx < crashers.size(); ++idx) {
      if (missed_by[idx].contains(i)) d.add(crashers[idx]);
    }
    out[i] = d.bits();
  }

  // Only crashers actually missed by somebody become announced; the others
  // effectively crash in a later round.
  for (std::size_t idx = 0; idx < crashers.size(); ++idx) {
    if (!missed_by[idx].empty()) announced_.add(crashers[idx]);
  }
}

// --------------------------------------------------------------------------
// AsyncAdversary
// --------------------------------------------------------------------------

AsyncAdversary::AsyncAdversary(int n, int f, std::uint64_t seed)
    : n_(n), f_(f), seed_(seed), rng_(seed) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(0 <= f && f < n);
}

std::string AsyncAdversary::name() const { return cat("async(f=", f_, ")"); }

void AsyncAdversary::reset() { rng_.reseed(seed_); }

void AsyncAdversary::next_round(std::uint64_t* out) {
  for (ProcId i = 0; i < n_; ++i) {
    const int size = static_cast<int>(rng_.below(static_cast<std::uint64_t>(f_) + 1));
    out[i] = random_subset_of_size(rng_, ProcessSet::all(n_), size).bits();
  }
}

// --------------------------------------------------------------------------
// SwmrAdversary
// --------------------------------------------------------------------------

SwmrAdversary::SwmrAdversary(int n, int f, std::uint64_t seed)
    : n_(n), f_(f), seed_(seed), rng_(seed) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(0 <= f && f < n);
}

std::string SwmrAdversary::name() const { return cat("swmr(f=", f_, ")"); }

void SwmrAdversary::reset() { rng_.reseed(seed_); }

void SwmrAdversary::next_round(std::uint64_t* out) {
  // The "first writer": announced to nobody this round (predicate 4).
  const ProcId heard = static_cast<ProcId>(rng_.below(static_cast<std::uint64_t>(n_)));
  const ProcessSet candidates = ProcessSet::all(n_).without(heard);
  for (ProcId i = 0; i < n_; ++i) {
    const int size = static_cast<int>(rng_.below(static_cast<std::uint64_t>(f_) + 1));
    out[i] = random_subset_of_size(rng_, candidates,
                                   std::min(size, candidates.size()))
                 .bits();
  }
}

// --------------------------------------------------------------------------
// SnapshotAdversary
// --------------------------------------------------------------------------

SnapshotAdversary::SnapshotAdversary(int n, int f, std::uint64_t seed)
    : n_(n), f_(f), seed_(seed), rng_(seed) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(0 <= f && f < n);
}

std::string SnapshotAdversary::name() const {
  return cat("snapshot(f=", f_, ")");
}

void SnapshotAdversary::reset() { rng_.reseed(seed_); }

void SnapshotAdversary::next_round(std::uint64_t* out) {
  // Random ordered partition B_1,...,B_m with |B_1| >= n - f so that no
  // process misses more than f others.
  std::vector<int> order = rng_.permutation(n_);
  const int first_block =
      n_ - f_ + static_cast<int>(rng_.below(static_cast<std::uint64_t>(f_) + 1));

  ProcessSet prefix(n_);
  int taken = 0;
  std::vector<ProcId> block;
  auto flush_block = [&] {
    for (ProcId p : block) prefix.add(p);
    for (ProcId p : block) out[p] = prefix.complement().bits();
    block.clear();
  };
  for (int idx = 0; idx < n_; ++idx) {
    block.push_back(order[static_cast<std::size_t>(idx)]);
    ++taken;
    const bool boundary =
        taken >= first_block && (taken == first_block || rng_.chance(0.5));
    if (boundary || idx == n_ - 1) flush_block();
  }
}

// --------------------------------------------------------------------------
// KUncertaintyAdversary
// --------------------------------------------------------------------------

KUncertaintyAdversary::KUncertaintyAdversary(int n, int k, std::uint64_t seed)
    : n_(n), k_(k), seed_(seed), rng_(seed) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(1 <= k && k <= n);
}

std::string KUncertaintyAdversary::name() const {
  return cat("k-uncertainty(k=", k_, ")");
}

void KUncertaintyAdversary::reset() { rng_.reseed(seed_); }

void KUncertaintyAdversary::next_round(std::uint64_t* out) {
  // Uncertainty set U with |U| < k; base set B announced to everyone,
  // disjoint from U, with |B u U| < n so no D(i,r) can be the full set.
  const int u_size = static_cast<int>(rng_.below(static_cast<std::uint64_t>(k_)));
  const ProcessSet u =
      random_subset_of_size(rng_, ProcessSet::all(n_), u_size);
  const ProcessSet rest = u.complement();
  const int b_max = n_ - 1 - u_size;
  const int b_size =
      static_cast<int>(rng_.below(static_cast<std::uint64_t>(b_max) + 1));
  const ProcessSet base = random_subset_of_size(rng_, rest, b_size);

  for (ProcId i = 0; i < n_; ++i) {
    out[i] = (base | random_subset(rng_, u, 0.5)).bits();
  }
}

// --------------------------------------------------------------------------
// ImmortalAdversary
// --------------------------------------------------------------------------

ImmortalAdversary::ImmortalAdversary(int n, std::uint64_t seed, ProcId immortal)
    : n_(n), seed_(seed), immortal_(immortal), auto_immortal_(immortal < 0),
      rng_(seed) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  if (auto_immortal_) {
    immortal_ = static_cast<ProcId>(rng_.below(static_cast<std::uint64_t>(n_)));
  }
  RRFD_REQUIRE(0 <= immortal_ && immortal_ < n_);
}

std::string ImmortalAdversary::name() const {
  return cat("immortal(p=", immortal_, ")");
}

void ImmortalAdversary::reset() {
  rng_.reseed(seed_);
  // An auto-picked immortal consumed one draw at construction; replay it,
  // or the post-reset stream is offset by one draw relative to the first
  // run (the pick itself is the same -- same seed, same draw).
  if (auto_immortal_) {
    immortal_ = static_cast<ProcId>(rng_.below(static_cast<std::uint64_t>(n_)));
  }
}

void ImmortalAdversary::next_round(std::uint64_t* out) {
  const ProcessSet candidates = ProcessSet::all(n_).without(immortal_);
  for (ProcId i = 0; i < n_; ++i) {
    out[i] = random_subset(rng_, candidates, 0.5).bits();
  }
}

// --------------------------------------------------------------------------
// EqualAdversary
// --------------------------------------------------------------------------

EqualAdversary::EqualAdversary(int n, std::uint64_t seed, double miss_prob)
    : n_(n), seed_(seed), miss_prob_(miss_prob), rng_(seed) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
}

void EqualAdversary::reset() { rng_.reseed(seed_); }

void EqualAdversary::next_round(std::uint64_t* out) {
  ProcessSet d = random_subset(rng_, ProcessSet::all(n_), miss_prob_);
  if (d.full()) d.remove(static_cast<ProcId>(rng_.below(static_cast<std::uint64_t>(n_))));
  std::fill_n(out, n_, d.bits());
}

// --------------------------------------------------------------------------
// ChainAdversary
// --------------------------------------------------------------------------

ChainAdversary::ChainAdversary(int n, int f, int k)
    : n_(n), f_(f), k_(k), rounds_(f / k) {
  RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  RRFD_REQUIRE(1 <= k && k <= f);
  RRFD_REQUIRE_MSG(n >= k_ * rounds_ + k_ + 1,
                   "need n >= k*floor(f/k) + k + 1 for the chain layout");
}

std::string ChainAdversary::name() const {
  return cat("chain(f=", f_, ",k=", k_, ",R=", rounds_, ")");
}

ProcId ChainAdversary::crasher(int m, Round j) const {
  RRFD_REQUIRE(0 <= m && m < k_);
  RRFD_REQUIRE(1 <= j && j <= rounds_);
  return (j - 1) * k_ + m;
}

std::vector<int> ChainAdversary::violating_inputs() const {
  std::vector<int> inputs(static_cast<std::size_t>(n_), k_);
  for (int m = 0; m < k_; ++m) inputs[static_cast<std::size_t>(m)] = m;
  return inputs;
}

void ChainAdversary::next_round(std::uint64_t* out) {
  ++round_;
  // Everyone crashed before this round is announced to all (including to
  // itself -- it has halted, which the crash predicate exempts).
  ProcessSet announced(n_);
  for (Round j = 1; j < round_ && j <= rounds_; ++j) {
    for (int m = 0; m < k_; ++m) announced.add(crasher(m, j));
  }

  std::fill_n(out, n_, announced.bits());
  if (round_ <= rounds_) {
    for (int m = 0; m < k_; ++m) {
      const ProcId c = crasher(m, round_);
      const ProcId successor =
          (round_ < rounds_) ? crasher(m, round_ + 1) : terminal(m);
      for (ProcId i = 0; i < n_; ++i) {
        if (i != successor && i != c) out[i] |= std::uint64_t{1} << c;
      }
    }
  }
}

}  // namespace rrfd::core
