// Golden adversary output: every adversary in core/adversaries.h, on a
// grid of system sizes and seeds, must keep emitting exactly the fault
// patterns it emitted when these digests were captured. Seeded
// experiment tables, sweep digests and recorded traces all sit on top of
// these streams, so a rewrite that consumes one RNG draw more or less
// must fail here first. The suite also ties the engine to the adversary:
// the pattern a run records equals record_pattern() on the reset
// adversary.
#include "core/adversaries.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace rrfd::core {
namespace {

constexpr Round kRounds = 12;

/// Folds n, the round count, and every D(i,r) word (round-major, each as
/// 8 little-endian bytes) into the running FNV-1a hash `h`.
void fold(std::uint64_t& h, const FaultPattern& p) {
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(p.n()));
  mix(static_cast<std::uint64_t>(p.rounds()));
  for (Round r = 1; r <= p.rounds(); ++r) {
    for (ProcId i = 0; i < p.n(); ++i) mix(p.d(i, r).bits());
  }
}

/// Never decides, ignores its deliveries: the engine then runs exactly
/// max_rounds rounds and records every announcement.
struct Idle {
  using Message = int;
  using Decision = int;
  int emit(Round) { return 0; }
  void absorb(Round, const DeliveryView<int>&, const ProcessSet&) {}
  bool decided() const { return false; }
  int decision() const { return 0; }
};

/// The adversary `kind` at grid point (n, f, seed), s = seed index; null
/// where its constructor rejects the point. ChainAdversary has no seed:
/// its three grid points vary the chain count k instead.
AdversaryPtr make(const std::string& kind, int n, int f, std::uint64_t seed,
                  int s) {
  if (kind == "scripted") {
    AsyncAdversary source(n, f, seed);
    return std::make_unique<ScriptedAdversary>(record_pattern(source, 5));
  }
  if (kind == "benign") return std::make_unique<BenignAdversary>(n);
  if (kind == "omission") {
    return std::make_unique<OmissionAdversary>(n, f, seed);
  }
  if (kind == "crash") return std::make_unique<CrashAdversary>(n, f, seed);
  if (kind == "async") return std::make_unique<AsyncAdversary>(n, f, seed);
  if (kind == "swmr") return std::make_unique<SwmrAdversary>(n, f, seed);
  if (kind == "snapshot") {
    return std::make_unique<SnapshotAdversary>(n, f, seed);
  }
  if (kind == "k-uncertainty") {
    return std::make_unique<KUncertaintyAdversary>(n, f, seed);
  }
  if (kind == "immortal") return std::make_unique<ImmortalAdversary>(n, seed);
  if (kind == "equal") return std::make_unique<EqualAdversary>(n, seed);
  const int k = s + 1;
  if (k > f || n < k * (f / k) + k + 1) return nullptr;
  return std::make_unique<ChainAdversary>(n, f, k);
}

/// Per adversary: FNV-1a over record_pattern(adversary, 12) at every
/// accepted point of n in {2, 5, 17, 64} x three seeds, in grid order.
/// Captured before the adversaries were rewritten to emit words.
const std::pair<const char*, std::uint64_t> kGolden[] = {
    {"scripted", 0xfae9e5355125d5faULL},
    {"benign", 0xca7b5638e199ea95ULL},
    {"omission", 0x1e54391515f37d55ULL},
    {"crash", 0xfd8ef6dbc1035f5bULL},
    {"async", 0xd267d811d12cb577ULL},
    {"swmr", 0x914ce243ae1f6ac5ULL},
    {"snapshot", 0xdfe7013b7052378fULL},
    {"k-uncertainty", 0x9ae44f129bfb1a3eULL},
    {"immortal", 0x856fbc24d7e96b39ULL},
    {"equal", 0xbbc97ebf13aede87ULL},
    {"chain", 0x8be3777b898252a2ULL},
};

/// Calls visit(adversary) at every grid point `kind` accepts.
void for_each_point(const std::string& kind,
                    const std::function<void(Adversary&)>& visit) {
  const std::uint64_t seeds[] = {1, 42, 0xdeadbeefULL};
  for (const int n : {2, 5, 17, 64}) {
    for (int s = 0; s < 3; ++s) {
      const AdversaryPtr adv = make(kind, n, n > 2 ? n / 2 : 1, seeds[s], s);
      if (adv) visit(*adv);
    }
  }
}

TEST(AdversaryGolden, RecordedPatternsMatchCapturedDigests) {
  for (const auto& [kind, digest] : kGolden) {
    std::uint64_t h = 1469598103934665603ull;
    for_each_point(kind, [&h](Adversary& adv) {
      fold(h, record_pattern(adv, kRounds));
    });
    EXPECT_EQ(h, digest) << kind;
  }
}

TEST(AdversaryGolden, EngineRecordsTheAdversaryPattern) {
  for (const auto& [kind, digest] : kGolden) {
    for_each_point(kind, [kind = kind](Adversary& adv) {
      const FaultPattern expected = record_pattern(adv, kRounds);
      adv.reset();
      std::vector<Idle> ps(static_cast<std::size_t>(adv.n()));
      EngineOptions options;
      options.max_rounds = kRounds;
      const RunResult<int> run = run_rounds(ps, adv, options);
      EXPECT_EQ(run.rounds, kRounds) << kind;
      EXPECT_EQ(run.pattern, expected) << kind << " n=" << adv.n();
    });
  }
}

}  // namespace
}  // namespace rrfd::core
