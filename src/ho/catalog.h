// Named derived models and their placement in the submodel lattice.
//
// The bridge's payoff is that models are *generated*: standard_catalog()
// compiles a set of operational specs into predicates, reference_zoo()
// exposes the hand-written models bench_lattice ranks (E13), and
// place_in_zoo() runs the exact engine both ways against every zoo
// member, so a derived model lands in the same lattice the paper draws
// for the hand-written ones. ho_compile (tools/) emits the placement as
// JSONL; bench_lattice's E19 section prints it as a matrix.
#pragma once

#include <string>
#include <vector>

#include "core/predicate.h"
#include "core/submodel.h"

namespace rrfd::ho {

/// A compiled catalog entry: the canonical spec text and its predicate.
struct DerivedModel {
  std::string name;
  std::string spec;
  core::PredicatePtr pred;
};

/// Exemplar compositions, one per primitive family plus mixed ones.
/// Deterministic order; every entry round-trips through parse_spec().
std::vector<DerivedModel> standard_catalog();

/// A hand-written zoo model to place derived predicates against.
struct ZooModel {
  std::string name;
  core::PredicatePtr pred;
};

/// The nine models bench_lattice's E13 matrix ranks, same labels.
std::vector<ZooModel> reference_zoo();

/// One row of a placement: both implication directions between a derived
/// model and one zoo member, decided exactly.
struct Placement {
  std::string vs;        ///< zoo model label
  bool implies = false;     ///< derived => zoo (derived is a submodel)
  bool implied_by = false;  ///< zoo => derived (zoo is a submodel)
};

/// Places `derived` against every reference_zoo() member by exhaustive
/// implication at (n, rounds). `options` selects pruning / symmetry /
/// memoization / runner, so callers can route the decision through the
/// parallel sweep executor (sweep::shard_runner).
std::vector<Placement> place_in_zoo(const core::Predicate& derived, int n,
                                    core::Round rounds,
                                    const core::EnumOptions& options = {});

}  // namespace rrfd::ho
