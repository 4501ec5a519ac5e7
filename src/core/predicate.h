// Predicate: what *is* an RRFD model.
//
// The paper defines a model as a predicate over the family of sets
// {D(i,r)}. A Predicate evaluates a FaultPattern; an adversary is valid
// for a model iff every pattern it can emit satisfies the model's
// predicate. Submodel relations (Section 2: "A is a submodel of B iff
// P_A => P_B") are checked with implies_on_samples() and, for small
// systems, decided exactly by the exhaustive engine in core/submodel.h.
//
// Exhaustive decision is only tractable because predicates expose an
// *incremental* view of themselves: a StepEvaluator consumes a pattern
// one round at a time and reports, after each round, whether the search
// below the current prefix can be cut. See "Exhaustive model checking"
// in DESIGN.md for the full contract.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_pattern.h"

namespace rrfd::core {

/// Byte-append helpers for StepEvaluator::state_bytes implementations.
/// Fixed-width little-endian encodings keep keys canonical across
/// platforms; length prefixes make variable-length child keys
/// self-delimiting inside composite folds.
namespace statekey {

inline void append_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Reserves a u32 length slot and returns its position; pair with
/// end_length_prefix after appending the variable-length payload.
inline std::size_t begin_length_prefix(std::vector<std::uint8_t>& out) {
  const std::size_t pos = out.size();
  append_u32(out, 0);
  return pos;
}

inline void end_length_prefix(std::vector<std::uint8_t>& out,
                              std::size_t pos) {
  const auto len = static_cast<std::uint32_t>(out.size() - pos - 4);
  for (int i = 0; i < 4; ++i) {
    out[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

}  // namespace statekey

/// Verdict of a StepEvaluator after one more round has been pushed.
enum class StepVerdict {
  /// The pushed prefix, taken as a complete pattern, violates the
  /// predicate. If the owning predicate is prunable() (its violations are
  /// stable under extension), every extension of the prefix violates it
  /// too, and an enumeration engine may cut the whole subtree.
  kViolatedForever,
  /// The pushed prefix, taken as a complete pattern, satisfies the
  /// predicate; extensions are undetermined.
  kSatisfiedSoFar,
  /// The pushed prefix satisfies the predicate and so does *every*
  /// extension of it; an enumeration engine may stop consulting this
  /// evaluator below the current depth. Evaluators must only return this
  /// when the guarantee is unconditional (e.g. a per-round bound that no
  /// legal round can exceed).
  kSatisfiedForever,
};

/// Incremental, backtrackable view of a Predicate for DFS enumeration.
///
/// Usage: begin() once, then push_round()/pop_round() in LIFO order as the
/// enumeration extends and retracts the pattern. The evaluator owns all
/// state it needs to answer in O(n) per push (the zoo implementations keep
/// a stack of per-depth summaries, e.g. the cumulative announcement
/// union), so evaluating a prefix of r rounds across a whole subtree costs
/// O(n) per node instead of O(n * r) per leaf.
///
/// Evaluators must tolerate pushes after kViolatedForever (the engine
/// keeps descending under non-prunable predicates); the verdict must then
/// remain exact for the deeper prefix.
class StepEvaluator {
 public:
  virtual ~StepEvaluator() = default;

  /// Resets to the empty pattern over `n` processes. `total_rounds` is the
  /// depth at which the enumeration will stop extending (the whole-pattern
  /// fallback uses it to know when a prefix is final); incremental
  /// implementations may ignore it.
  virtual void begin(int n, Round total_rounds) = 0;

  /// Extends the pattern by one round and reports the verdict for the
  /// extended prefix. `d[i]` is D(i,r).bits() for i < n (begin()'s n);
  /// the round must be legal (every D a proper subset of S), and `d` is
  /// only valid for the duration of the call.
  virtual StepVerdict push_round(const std::uint64_t* d) = 0;

  /// Retracts the most recently pushed round.
  virtual void pop_round() = 0;

  /// Appends a canonical fingerprint of the evaluator's current state to
  /// `out` and returns true, or returns false when the evaluator has no
  /// bounded canonical key (the default, inherited by the whole-pattern
  /// fallback, whose state is the entire pushed prefix).
  ///
  /// Contract (what the suffix-memoization engine relies on; see
  /// "Suffix memoization" in DESIGN.md):
  ///  * Canonical: two evaluators of the *same predicate* -- same class,
  ///    same construction parameters, begun with the same n -- that
  ///    append equal bytes behave identically under every future LIFO
  ///    push/pop sequence that never pops below the current depth.
  ///    Equal bytes must imply equal behaviour across instances, not
  ///    just within one instance.
  ///  * Keyability is structural: an evaluator either always returns
  ///    true or always returns false over its whole lifetime; callers
  ///    probe once after begin().
  ///  * On a false return the contents of `out` are unspecified.
  ///
  /// Implementations should canonicalize absorbing states (e.g. collapse
  /// every violated-forever state to one tag byte) so that behaviourally
  /// identical states share one memo entry.
  virtual bool state_bytes(std::vector<std::uint8_t>& out) const;

  /// Convenience wrapper over state_bytes: the full key from an empty
  /// buffer, or nullopt for keyless evaluators.
  std::optional<std::vector<std::uint8_t>> state_key() const;
};

/// An RRFD model, i.e. a predicate over fault patterns.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Short identifier, e.g. "sync-omission(f=2)".
  virtual std::string name() const = 0;

  /// One-line human description referencing the paper.
  virtual std::string description() const = 0;

  /// Does the full pattern satisfy the model?
  virtual bool holds(const FaultPattern& pattern) const = 0;

  /// True iff every prefix of `pattern` satisfies the model. For
  /// prefix-closed predicates (all the paper's models are) this equals
  /// holds(); the default implementation walks the rounds once through the
  /// incremental evaluator, so zoo predicates pay O(n) per round instead
  /// of re-evaluating every prefix from scratch, and non-prefix-closed
  /// custom predicates are still handled correctly (the whole-pattern
  /// fallback re-checks holds() at every depth).
  virtual bool holds_all_prefixes(const FaultPattern& pattern) const;

  /// Incremental evaluator for exhaustive enumeration. The default is a
  /// whole-pattern fallback that maintains a growing FaultPattern and
  /// calls holds() after every push — correct for any predicate, but
  /// without pruning power (see prunable()). Zoo predicates override this
  /// with true O(n)-per-round implementations.
  virtual std::unique_ptr<StepEvaluator> evaluator() const;

  /// True iff the predicate's violations are stable under extension: once
  /// a prefix violates it, every extension does too. This is what makes
  /// kViolatedForever a licence to prune an enumeration subtree. Every
  /// model in the paper's zoo has this property; the conservative default
  /// is false so that custom predicates (e.g. "holds iff exactly two
  /// rounds") are enumerated without unsound cuts.
  virtual bool prunable() const { return false; }

  /// True iff the predicate is invariant under renaming processes
  /// (simultaneously permuting observer indices and set members). Enables
  /// process-permutation symmetry reduction in the exhaustive engine. All
  /// zoo predicates are symmetric; the default is false because a custom
  /// predicate may single out specific identifiers. The claim covers the
  /// evaluator too: a renamed prefix gets the same three-valued verdict as
  /// the original, kSatisfiedForever included (kViolatedForever already
  /// follows from holds()). The engine explores one memo seed subtree per
  /// renaming class on that promise, and throws a ContractViolation when
  /// a renamed first round gets a different verdict.
  virtual bool symmetric() const { return false; }
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// Conjunction of predicates. Most of the paper's models are built by
/// composing primitive constraints (e.g. item 2 = item 1 /\ monotonicity).
class AndPredicate final : public Predicate {
 public:
  AndPredicate(std::string name, std::vector<PredicatePtr> parts);

  std::string name() const override { return name_; }
  std::string description() const override;
  bool holds(const FaultPattern& pattern) const override;
  std::unique_ptr<StepEvaluator> evaluator() const override;
  bool prunable() const override;
  bool symmetric() const override;

  const std::vector<PredicatePtr>& parts() const { return parts_; }

 private:
  std::string name_;
  std::vector<PredicatePtr> parts_;
};

/// Convenience factory for AndPredicate.
PredicatePtr all_of(std::string name, std::vector<PredicatePtr> parts);

}  // namespace rrfd::core
