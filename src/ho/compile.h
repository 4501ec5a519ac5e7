// Lowering operational specs to RRFD predicates.
//
// compile() turns a validated Spec into a core::Predicate that
// implements the full incremental-evaluator contract the exhaustive
// engine (core/submodel.h) relies on:
//
//  - holds() is a whole-pattern set-algebra interpreter over the spec;
//  - evaluator() is a tree of incremental nodes mirroring the spec, with
//    raw-word cores per primitive written independently of holds(), so
//    the conformance suites compare two genuinely distinct evaluations
//    of every derived model. The primitives with a zoo twin (loss_cap,
//    mobile, self_delivery, no_partition, crash_only, faulty, kernel)
//    run the evaluator they share with the zoo (core/constraints.h);
//  - prunable()/symmetric() come from ho::derive_traits(), i.e. from the
//    primitives' closure properties, never from optimism. A spec
//    containing eventually() is honestly non-prunable and the DFS
//    descends under its violated prefixes; partition() is honestly
//    asymmetric and disables symmetry reduction.
//
// Derived predicates are ordinary PredicatePtr values: they enter
// submodel queries, the sweep executor, and bench_lattice exactly like
// the hand-written zoo.
#pragma once

#include <string>

#include "core/predicate.h"
#include "ho/spec.h"

namespace rrfd::ho {

/// Compiles a spec into a predicate. `name` defaults to
/// "ho:" + to_text(spec). Throws rrfd::ContractViolation if the spec is
/// malformed (see ho::validate()).
core::PredicatePtr compile(const Spec& spec, std::string name = "");

/// parse_spec() + compile() in one step.
core::PredicatePtr compile_text(const std::string& spec_text,
                                std::string name = "");

}  // namespace rrfd::ho
