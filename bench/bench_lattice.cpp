// E13 -- The submodel lattice of Section 2, decided exactly.
//
// "This paper proposes to investigate systems by finding their RRFD
// counterparts. The RRFD counterparts, being part of the same family,
// bring forth the commonality and the difference between the systems."
// The summary prints the pairwise implication matrix over the model zoo,
// computed by exhaustive enumeration of every fault pattern for n = 3 --
// then decides the same matrix at n = 4 (50625 patterns per cell) and
// the paper's equivalences over two rounds at n = 4 (2.56e9 patterns per
// direction), which the pruned, symmetry-reduced, sharded engine
// finishes in seconds (E17 / bench_submodel quantifies the engine
// itself).
// E19 extends the lattice with the Heard-Of bridge: predicates compiled
// from operational specs (src/ho) are placed against the hand-written zoo
// and the advertised recoveries are re-decided as exact equivalences.
#include "core/submodel.h"

#include <chrono>

#include "bench_util.h"
#include "core/adversaries.h"
#include "core/predicates.h"
#include "ho/catalog.h"
#include "ho/compile.h"
#include "sweep/submodel_parallel.h"

namespace {

using namespace rrfd;

struct Entry {
  std::string label;
  core::PredicatePtr pred;
};

std::vector<Entry> model_zoo() {
  return {
      {"omission(1)", core::sync_omission(1)},
      {"crash(1)", core::sync_crash(1)},
      {"async(1)", core::async_message_passing(1)},
      {"swmr(1)", core::swmr_shared_memory(1)},
      {"snapshot(1)", core::atomic_snapshot(1)},
      {"S", core::detector_s()},
      {"2-uncertainty", core::k_uncertainty(2)},
      {"equal-D", core::equal_announcements()},
      {"skew(2,1)", core::quorum_skew(2, 1)},
  };
}

void print_matrix(int n, core::Round rounds) {
  const auto zoo = model_zoo();
  std::vector<std::string> headers{"implies ->"};
  for (const auto& e : zoo) headers.push_back(e.label);
  bench::Table table(headers);
  for (const auto& row : zoo) {
    std::vector<std::string> cells{row.label};
    for (const auto& col : zoo) {
      auto r = sweep::implies_exhaustive(*row.pred, *col.pred, n, rounds);
      cells.push_back(r.holds ? "1" : "0");
    }
    table.add_row(std::move(cells));
  }
  table.print();
}

void summary() {
  bench::banner(
      "E13 / the exact submodel lattice (n = 3, 1 round, all 343 patterns)",
      "Cell (row, col) = does row's predicate imply column's?\n"
      "(1 = submodel, 0 = counterexample exists)");

  const auto zoo = model_zoo();
  std::vector<std::string> headers{"implies ->"};
  for (const auto& e : zoo) headers.push_back(e.label);
  bench::Table table(headers);
  for (const auto& row : zoo) {
    std::vector<std::string> cells{row.label};
    for (const auto& col : zoo) {
      auto r = core::implies_exhaustive(*row.pred, *col.pred, 3, 1);
      cells.push_back(r.holds ? "1" : "0");
    }
    table.add_row(std::move(cells));
  }
  table.print();

  bench::banner(
      "E13b / exact equivalences",
      "Predicate manipulations the paper performs, decided over 2 rounds.");
  bench::Table eq({"claim", "verdict"});
  {
    auto r = core::equivalent_exhaustive(*core::equal_announcements(),
                                         *core::k_uncertainty(1), 3, 2);
    eq.add_row({"equation (5) == 1-uncertainty",
                r.equivalent() ? "equivalent" : "DIFFERENT"});
  }
  {
    core::ImmortalProcess immortal;
    core::CumulativeFaultBound bound(2);
    auto r = core::equivalent_exhaustive(immortal, bound, 3, 2);
    eq.add_row({"detector-S == omission budget n-1 (item 6)",
                r.equivalent() ? "equivalent" : "DIFFERENT"});
  }
  eq.print();

  using Clock = std::chrono::steady_clock;

  bench::banner(
      "E13c / the exact submodel lattice (n = 4, 1 round, all 50625 "
      "patterns)",
      "Same matrix one system size up, every cell decided exactly by the\n"
      "pruned, symmetry-reduced, sharded engine (RRFD_SWEEP_THREADS "
      "workers).");
  {
    const auto t0 = Clock::now();
    print_matrix(4, 1);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    bench::summary_out() << "\n  (81 cells decided in " << ms << " ms)\n";
  }

  bench::banner(
      "E13d / exact equivalences at n = 4",
      "The same manipulations over 2 rounds at n = 4: 15^8 = 2562890625\n"
      "patterns per direction, decided exactly.");
  {
    bench::Table eq4({"claim", "verdict", "patterns/direction", "ms"});
    {
      const auto t0 = Clock::now();
      auto r = sweep::equivalent_exhaustive(*core::equal_announcements(),
                                            *core::k_uncertainty(1), 4, 2);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      eq4.add_row({"equation (5) == 1-uncertainty",
                   r.equivalent() ? "equivalent" : "DIFFERENT",
                   std::to_string(r.forward.patterns_checked),
                   std::to_string(static_cast<std::int64_t>(ms))});
    }
    {
      core::ImmortalProcess immortal;
      core::CumulativeFaultBound bound(3);
      const auto t0 = Clock::now();
      auto r = sweep::equivalent_exhaustive(immortal, bound, 4, 2);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      eq4.add_row({"detector-S == omission budget n-1 (item 6)",
                   r.equivalent() ? "equivalent" : "DIFFERENT",
                   std::to_string(r.forward.patterns_checked),
                   std::to_string(static_cast<std::int64_t>(ms))});
    }
    eq4.print();
  }

  bench::banner(
      "E19 / Heard-Of bridge: compiled operational specs vs the zoo "
      "(n = 3, 2 rounds)",
      "Rows are predicates compiled from src/ho specs; cell vs column:\n"
      "'=' equivalent, '<' strict submodel, '>' strict supermodel,\n"
      "'#' incomparable.");
  {
    core::EnumOptions options;
    options.runner = sweep::shard_runner();
    const auto t0 = Clock::now();
    const auto catalog = ho::standard_catalog();
    std::vector<std::string> ho_headers{"derived \\ zoo"};
    for (const auto& z : ho::reference_zoo()) ho_headers.push_back(z.name);
    bench::Table ho_table(ho_headers);
    for (const auto& m : catalog) {
      std::vector<std::string> cells{m.name};
      for (const ho::Placement& p :
           ho::place_in_zoo(*m.pred, 3, 2, options)) {
        cells.push_back(p.implies ? (p.implied_by ? "=" : "<")
                                  : (p.implied_by ? ">" : "#"));
      }
      ho_table.add_row(std::move(cells));
    }
    ho_table.print();
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    bench::summary_out() << "\n  (" << catalog.size() << " x "
                         << ho::reference_zoo().size()
                         << " placements decided in " << ms << " ms)\n";
  }

  bench::banner(
      "E19b / recoveries: hand-written models as spec compositions",
      "Advertised equivalences re-decided exhaustively (both directions,\n"
      "117649 patterns each at n = 3, 2 rounds).");
  {
    core::EnumOptions options;
    options.runner = sweep::shard_runner();
    bench::Table rec({"spec", "hand-written model", "verdict"});
    const std::vector<std::pair<std::string, std::string>> claims = {
        {"loss_cap(1)", "async(1)"},
        {"kernel(1)", "S"},
        {"all(self_delivery(),faulty(1))", "omission(1)"},
        {"all(loss_cap(1),no_partition())", "swmr(1)"},
    };
    const auto hand_written = model_zoo();
    for (const auto& [spec, zoo_name] : claims) {
      core::PredicatePtr target;
      for (const auto& e : hand_written) {
        if (e.label == zoo_name) target = e.pred;
      }
      const auto derived = ho::compile_text(spec);
      const auto r =
          core::equivalent_exhaustive(*derived, *target, 3, 2, options);
      rec.add_row(
          {spec, zoo_name, r.equivalent() ? "equivalent" : "DIFFERENT"});
    }
    rec.print();
  }
}

void bm_exhaustive_implication(benchmark::State& state) {
  for (auto _ : state) {
    auto r = core::implies_exhaustive(*core::atomic_snapshot(1),
                                      *core::k_uncertainty(2), 3,
                                      static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(r.holds);
  }
}
BENCHMARK(bm_exhaustive_implication)->Arg(1)->Arg(2)->ArgName("rounds");

void bm_exhaustive_implication_n4(benchmark::State& state) {
  for (auto _ : state) {
    auto r = core::implies_exhaustive(*core::atomic_snapshot(1),
                                      *core::k_uncertainty(2), 4,
                                      static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(r.holds);
  }
}
BENCHMARK(bm_exhaustive_implication_n4)->Arg(1)->Arg(2)->ArgName("rounds");

void bm_sampled_implication(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::SnapshotAdversary adv(n, 1, seed++);
    auto r = core::implies_on_samples(adv, *core::k_uncertainty(2), 3, 100);
    benchmark::DoNotOptimize(r.holds);
  }
}
BENCHMARK(bm_sampled_implication)->Arg(8)->Arg(32)->Arg(64)->ArgName("n");

void bm_derived_placement(benchmark::State& state) {
  // One derived model placed against the full reference zoo (18 exact
  // implications per iteration).
  const auto derived = ho::compile_text("all(loss_cap(1),no_partition())");
  const core::EnumOptions options;
  for (auto _ : state) {
    const auto placement = ho::place_in_zoo(*derived, 3, 1, options);
    benchmark::DoNotOptimize(placement.size());
  }
}
BENCHMARK(bm_derived_placement);

void bm_derived_equivalence_recovery(benchmark::State& state) {
  // The E19b headline recovery, timed: compiled kernel(1) against the
  // hand-written detector-S over `rounds` rounds.
  const auto derived = ho::compile_text("kernel(1)");
  const auto target = core::detector_s();
  const core::EnumOptions options;
  for (auto _ : state) {
    const auto r = core::equivalent_exhaustive(
        *derived, *target, 3, static_cast<int>(state.range(0)), options);
    benchmark::DoNotOptimize(r.forward.patterns_checked);
  }
}
BENCHMARK(bm_derived_equivalence_recovery)->Arg(1)->Arg(2)->ArgName("rounds");

}  // namespace

RRFD_BENCH_MAIN(summary)
