// modelcheck-deep: a closed loop, 1 client, issuing a fixed cycle of
// exhaustive checks the way sweep::implies_exhaustive and
// sweep::equivalent_exhaustive make them, on a 4-thread shard runner, all
// at n = 4:
//
//   * 2-round equivalences that hold (memo-heavy): ImmortalProcess ==
//     CumulativeFaultBound(3) (E13/E21), equation (5) == 1-uncertainty
//     (E13), and the Heard-Of recoveries loss_cap(1) == async(1) and
//     all(self_delivery(),faulty(1)) == omission(1) (E19);
//   * the 3-round ImmortalProcess == CumulativeFaultBound(3) (E21);
//   * refuted zoo implications at 2 rounds, most stopping at an early
//     counterexample;
//   * 1-round placements of ho::standard_catalog() entries against
//     ho::reference_zoo() (no memoization: pruning and symmetry only).
//
// The serial part of the checks takes the CPUs in turn (see CpuSet).
// Every predicate is built during setup, and every verdict is checked
// against the tables below: the one-round placements agree with the naive
// pattern enumeration (core::enumerate_patterns + holds()), and every
// refutation's counterexample is checked with holds() as it comes.
#include <set>

#include "core/predicates.h"
#include "core/submodel.h"
#include "harness.h"
#include "ho/catalog.h"
#include "ho/compile.h"
#include "sweep/submodel_parallel.h"
#include "util/rng.h"
#include "util/str.h"

namespace perfbench {

namespace {

using namespace rrfd;

constexpr int kN = 4;
constexpr int kThreads = 4;
constexpr int kImmortalR2Copies = 30;
/// Memo hits count the replayed subtree's full node mass, so the budget
/// covers the unmemoized work profile: 1e15 > 7 * 15^12 bounds any
/// 3-round n = 4 search (as in bench_submodel).
constexpr std::int64_t kNodeBudget = 1'000'000'000'000'000;

/// Placement of every standard_catalog() entry (rows) against every
/// reference_zoo() model (columns) at n = 4, one round:
/// '=' equivalent, '<' entry => zoo only, '>' zoo => entry only,
/// '#' incomparable.
constexpr const char* kPlacements[] = {
    ">>=>>###<",  // ho-async(1)
    "==<<=<<#<",  // ho-omission(1)
    ">><=><##<",  // ho-swmr(1)
    ">>#>>=>>#",  // ho-detector-S
    ">><<><<#<",  // ho-mobile(1)
    ">>>>>>>>>",  // ho-link-budget(1)
    ">>>>>>>>>",  // ho-delay(1)
    ">>>>>>>>>",  // ho-crash-tail
    "<<<<<<<<<",  // ho-eventually-quiet
    "#########",  // ho-partition(0|12)
};

/// reference_zoo() row => column at n = 4, two rounds ('1' holds).
constexpr const char* kZooImplies[] = {
    "101111101",  // omission(1)
    "011101101",  // crash(1)
    "001000001",  // async(1)
    "001100001",  // swmr(1)
    "001111101",  // snapshot(1)
    "000001000",  // S
    "000000100",  // 2-uncertainty
    "000000110",  // equal-D
    "000000001",  // skew(2,1)
};

std::int64_t space(int n, int rounds) {
  std::int64_t s = 1;
  for (int i = 0; i < n * rounds; ++i) s *= (std::int64_t{1} << n) - 1;
  return s;
}

/// One check of the cycle with its expected verdict.
struct Check {
  std::string label;
  core::PredicatePtr a;
  core::PredicatePtr b;
  int rounds = 1;
  bool equivalence = false;
  bool expect_holds = false;  ///< for an equivalence: both directions
  /// The CPU slot (see CpuSet) of the check's serial part. Copies of one
  /// check get consecutive slots, so each is spread evenly.
  std::size_t slot = 0;
};

/// `inner` with its workers free to use every CPU of `cpus`: the calling
/// thread runs the serial seed pass pinned to `slot` (about four fifths
/// of an n = 4 memoized check), and the threads it starts would inherit
/// that one CPU.
core::ShardRunner spread_workers(const CpuSet& cpus, std::size_t slot,
                                 core::ShardRunner inner) {
  return [&cpus, slot, inner = std::move(inner)](
             int n_jobs, const std::function<void(int)>& job) {
    cpus.release();
    inner(n_jobs, job);
    cpus.pin(slot);
  };
}

class ModelcheckDeep final : public Workload {
 public:
  void setup(std::uint64_t seed) override;
  void run_cycle(Pass& pass) override;
  void layer_metrics(const Pass& pass, const std::vector<Span>& spans,
                     Metrics& out) const override;
  // 270 ops a cycle: 180 placements and 52 refutations, 6 short
  // equivalences, then p90 inside the 30 2-round ImmortalProcess ones.
  double tail_q() const override { return 0.9; }

 private:
  /// Runs one check, timing the call into *seconds; returns "" or what
  /// was wrong with its verdict.
  std::string run_check(const Check& c, const CpuSet& cpus, Pass& pass,
                        std::int64_t op, double* seconds) const;

  std::vector<Check> cycle_;
};

void ModelcheckDeep::setup(std::uint64_t seed) {
  cycle_.clear();
  Rng rng(seed ^ 0xdee9c4ecdee9c4ecULL);
  const std::vector<ho::ZooModel> zoo = ho::reference_zoo();
  const std::vector<ho::DerivedModel> catalog = ho::standard_catalog();
  const auto eq = [&](std::string label, core::PredicatePtr a,
                      core::PredicatePtr b, int rounds, int copies) {
    for (int i = 0; i < copies; ++i) {
      cycle_.push_back({label, a, b, rounds, true, true, cycle_.size()});
    }
  };
  const auto immortal = std::make_shared<core::ImmortalProcess>();
  const auto cumulative3 = std::make_shared<core::CumulativeFaultBound>(3);
  eq("ImmortalProcess==CumulativeFaultBound(3) r=2", immortal, cumulative3, 2,
     kImmortalR2Copies);
  eq("ImmortalProcess==CumulativeFaultBound(3) r=3", immortal, cumulative3, 3,
     2);
  eq("equal-D==1-uncertainty r=2", core::equal_announcements(),
     core::k_uncertainty(1), 2, 2);
  eq("loss_cap(1)==async(1) r=2", ho::compile_text("loss_cap(1)"),
     core::async_message_passing(1), 2, 2);
  eq("all(self_delivery(),faulty(1))==omission(1) r=2",
     ho::compile_text("all(self_delivery(),faulty(1))"),
     core::sync_omission(1), 2, 2);

  // Every refuted zoo implication at two rounds.
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    for (std::size_t j = 0; j < zoo.size(); ++j) {
      if (kZooImplies[i][j] != '0') continue;
      cycle_.push_back({cat(zoo[i].name, "=>", zoo[j].name, " r=2"),
                        zoo[i].pred, zoo[j].pred, 2, false, false,
                        cycle_.size()});
    }
  }
  // Every placement cell, both directions, at one round.
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    for (std::size_t j = 0; j < zoo.size(); ++j) {
      const char cell = kPlacements[i][j];
      cycle_.push_back({cat(catalog[i].name, "=>", zoo[j].name, " r=1"),
                        catalog[i].pred, zoo[j].pred, 1, false,
                        cell == '=' || cell == '<', cycle_.size()});
      cycle_.push_back({cat(zoo[j].name, "=>", catalog[i].name, " r=1"),
                        zoo[j].pred, catalog[i].pred, 1, false,
                        cell == '=' || cell == '>', cycle_.size()});
    }
  }
  // The checks are fixed; the seed picks their order.
  rng.shuffle(cycle_);

  // Warm-up: one check of each 2-round equivalence before timing starts.
  const CpuSet cpus;
  Pass warm_up;
  std::set<std::string> warmed;
  for (const Check& c : cycle_) {
    if (c.rounds != 2 || !c.equivalence || !warmed.insert(c.label).second) {
      continue;
    }
    double seconds = 0;
    const std::string error = run_check(c, cpus, warm_up, -1, &seconds);
    RRFD_REQUIRE_MSG(error.empty(), "modelcheck-deep warm-up: " + error);
  }
}

std::string ModelcheckDeep::run_check(const Check& c, const CpuSet& cpus,
                                      Pass& pass, std::int64_t op,
                                      double* seconds) const {
  core::EnumOptions options;
  options.prune = true;
  options.symmetry = core::Symmetry::kAuto;
  options.node_budget = kNodeBudget;
  options.path = core::EnginePath::kWord;
  options.memo = core::Memo::kAuto;

  std::vector<const core::ImplicationResult*> parts;
  core::EquivalenceResult eq;
  core::ImplicationResult imp;
  cpus.pin(c.slot);
  {
    TimedSection timed(pass);
    ScopedSpan span(pass.spans,
                    c.equivalence ? "core.equivalent_exhaustive"
                                  : "core.implies_exhaustive",
                    op);
    // What sweep::equivalent_exhaustive and sweep::implies_exhaustive do
    // (core's, with options.runner = sweep::shard_runner(threads)), with
    // the runner's workers spread over every CPU; the traced pass also
    // times each shard, with identical results by the shard-order
    // contract.
    options.runner = spread_workers(
        cpus, c.slot,
        pass.traced()
            ? instrumented_runner(kThreads, pass.spans, op, span.id(), pass)
            : sweep::shard_runner(kThreads));
    if (c.equivalence) {
      eq = core::equivalent_exhaustive(*c.a, *c.b, kN, c.rounds, options);
    } else {
      imp = core::implies_exhaustive(*c.a, *c.b, kN, c.rounds, options);
    }
    *seconds = span.stop();
  }
  if (c.equivalence) {
    parts = {&eq.forward, &eq.backward};
  } else {
    parts = {&imp};
  }
  const std::int64_t full = space(kN, c.rounds);
  for (std::size_t d = 0; d < parts.size(); ++d) {
    const core::ImplicationResult& r = *parts[d];
    count_enum_stats(pass, r.stats);
    if (r.holds != c.expect_holds) {
      return cat(c.label, ": verdict ", r.holds, ", expected ", c.expect_holds);
    }
    if (r.holds && r.patterns_checked != full) {
      return cat(c.label, ": decided ", r.patterns_checked, " of ", full);
    }
    if (!r.holds) {
      const core::Predicate& a = d == 0 ? *c.a : *c.b;
      const core::Predicate& b = d == 0 ? *c.b : *c.a;
      if (!r.counterexample || !a.holds(*r.counterexample) ||
          b.holds(*r.counterexample)) {
        return cat(c.label, ": counterexample is not in A \\ B");
      }
    }
  }
  return "";
}

void ModelcheckDeep::run_cycle(Pass& pass) {
  const CpuSet cpus;
  for (const Check& c : cycle_) {
    double seconds = 0;
    const std::string error = run_check(c, cpus, pass, pass.attempted, &seconds);
    pass.op_done(seconds, error.empty(), error);
  }
}

void ModelcheckDeep::layer_metrics(const Pass& pass,
                                   const std::vector<Span>& spans,
                                   Metrics& out) const {
  submodel_metrics(pass, totals_by_name(spans),
                   {"core.equivalent_exhaustive", "core.implies_exhaustive"},
                   out);
}

}  // namespace

std::unique_ptr<Workload> make_modelcheck_deep() {
  return std::make_unique<ModelcheckDeep>();
}

}  // namespace perfbench
