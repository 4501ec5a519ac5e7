// Fault patterns: the complete record of what an RRFD told every process.
//
// An execution of an RRFD system is characterized (apart from the
// algorithm's own messages) by the family of sets D(i,r). A FaultPattern
// stores that family for rounds 1..R; predicates (core/predicates.h) are
// evaluated against it, adversaries (core/adversaries.h) produce it round
// by round, and the engine (core/engine.h) records it as it drives
// processes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/process_set.h"
#include "core/types.h"
#include "core/words.h"

namespace rrfd::core {

/// One round's fault announcements as sets: faults[i] == D(i, r).
/// Invariant: all entries share the same system size n. The set-algebra
/// view of a round, used by the whole-pattern oracles and transforms;
/// FaultPattern itself stores words.
using RoundFaults = std::vector<ProcessSet>;

/// Union over processes of D(i, r) for a single round.
ProcessSet union_over(const RoundFaults& round);

/// Intersection over processes of D(i, r) for a single round.
ProcessSet intersection_over(const RoundFaults& round);

/// A RoundFaults where every process is told the same set `d`.
RoundFaults uniform_round(int n, const ProcessSet& d);

/// The full family {D(i,r)} for rounds 1..rounds(), as one flat word
/// arena: round r occupies n consecutive words, words(r)[i] =
/// D(i,r).bits(). Appending a round costs n word stores.
class FaultPattern {
 public:
  explicit FaultPattern(int n) : n_(n) {
    RRFD_REQUIRE(0 < n && n <= kMaxProcesses);
  }

  int n() const { return n_; }

  /// Number of recorded rounds.
  int rounds() const {
    return static_cast<int>(words_.size() / static_cast<std::size_t>(n_));
  }

  /// Pre-allocates storage for `r` rounds.
  void reserve_rounds(Round r) {
    if (r > 0) {
      words_.reserve(static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(n_));
    }
  }

  /// Appends round `rounds()+1` with D(i,r) = d[i] for i < n; `d` must
  /// not point into this pattern. Every word must lie within
  /// S = {0..n-1}, and the paper's universal constraint D(i,r) != S must
  /// hold ("not all processes can be late"). On a violation nothing is
  /// appended.
  void append(const std::uint64_t* d);

  /// Checked set builder: `round` must hold n sets over n processes;
  /// then as append(words).
  void append(const RoundFaults& round);

  /// Removes the most recently appended round (LIFO). Backtracking
  /// counterpart of append(); the whole-pattern evaluator fallback in
  /// core/predicate.cpp uses it to retract DFS extensions in place.
  void pop_round() {
    RRFD_REQUIRE(rounds() > 0);
    words_.resize(words_.size() - static_cast<std::size_t>(n_));
  }

  /// The n words of (1-based) round r: words(r)[i] = D(i,r).bits().
  /// Valid until the next append().
  const std::uint64_t* words(Round r) const {
    RRFD_REQUIRE(1 <= r && r <= rounds());
    return words_.data() +
           static_cast<std::size_t>(r - 1) * static_cast<std::size_t>(n_);
  }

  /// D(i, r); r is 1-based as in the paper.
  ProcessSet d(ProcId i, Round r) const {
    RRFD_REQUIRE(0 <= i && i < n_);
    return ProcessSet::from_bits(n_, words(r)[i]);
  }

  /// All announcements of round r, as sets (a copy).
  RoundFaults round(Round r) const;

  /// Union over processes of D(i, r).
  ProcessSet round_union(Round r) const;

  /// Intersection over processes of D(i, r).
  ProcessSet round_intersection(Round r) const;

  /// Union of all announcements in rounds 1..r (r defaults to all rounds).
  /// This is the paper's cumulative fault set U_{r>0} U_{p_i} D(i,r).
  ProcessSet cumulative_union(Round up_to = -1) const;

  /// Truncates to the first r rounds.
  FaultPattern prefix(Round r) const;

  /// Multi-line rendering for diagnostics.
  std::string to_string() const;

  /// Patterns are equal iff they describe the same {D(i,r)} family over
  /// the same system (used by replay verification).
  friend bool operator==(const FaultPattern& a, const FaultPattern& b) {
    return a.n_ == b.n_ && a.words_ == b.words_;
  }
  friend bool operator!=(const FaultPattern& a, const FaultPattern& b) {
    return !(a == b);
  }

 private:
  int n_;
  std::vector<std::uint64_t> words_;  ///< round-major, n words per round
};

}  // namespace rrfd::core
