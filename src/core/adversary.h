// Adversary: the operational half of an RRFD model.
//
// The paper remarks that the round-by-round fault detector "may be
// considered in fact to be an adversary": it chooses, within the model's
// predicate, which announcements each process sees. An Adversary produces
// the sets D(i,r) round by round; the engine feeds them to the algorithm
// under test. Concrete adversaries (core/adversaries.h) exist for every
// model in the zoo, plus scripted and worst-case constructions used by
// the lower-bound experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/fault_pattern.h"

namespace rrfd::core {

/// Produces one round of announcements per call. Stateful: crash
/// adversaries must remember who is already announced; reset() rewinds to
/// round 1 with the same seed so a run can be replayed exactly.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// System size.
  virtual int n() const = 0;

  /// Short identifier for traces and bench labels.
  virtual std::string name() const = 0;

  /// Announcements for the next round (first call = round 1): writes
  /// D(i, r).bits() into out[0..n()), every one of the n words.
  virtual void next_round(std::uint64_t* out) = 0;

  /// Rewinds to round 1; the replayed stream is identical.
  virtual void reset() = 0;
};

using AdversaryPtr = std::unique_ptr<Adversary>;

/// Runs an adversary for `rounds` rounds and returns the pattern it emits.
/// Useful for predicate checks that don't need an algorithm in the loop.
FaultPattern record_pattern(Adversary& adversary, Round rounds);

}  // namespace rrfd::core
