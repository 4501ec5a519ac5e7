// E17 -- The exhaustive submodel engine itself (core/submodel.h).
//
// E13 asks lattice questions; this bench measures the machinery that
// answers them: prefix-pruned DFS with incremental StepEvaluators,
// process-permutation symmetry reduction, and deterministic sharding
// over the sweep worker pool. The summary contrasts the enumeration
// modes on fixed workloads and verifies that the sharded runs return
// byte-identical results to the serial ones; the timed benchmarks emit
// nodes/s, decided-patterns/s, pruning ratio, symmetry factor, and
// serial-vs-parallel speedup as counters into BENCH_rrfd.json.
#include "core/submodel.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "bench_util.h"
#include "core/predicates.h"
#include "sweep/submodel_parallel.h"

namespace {

using namespace rrfd;
using Clock = std::chrono::steady_clock;

/// Baseline decided-patterns/s measured by the summary; the timed
/// benchmarks report their speedup against it.
double g_baseline_patterns_per_s = 0.0;

// RRFD_SUBMODEL_MEMO=off|auto selects the suffix-memoization policy
// (default auto), so one binary records the E17 pre-memo/post-memo rows
// and the E21 equivalence row against the same build.
core::Memo bench_memo() {
  const char* env = std::getenv("RRFD_SUBMODEL_MEMO");
  if (env == nullptr || *env == '\0') return core::Memo::kAuto;
  const std::string_view v(env);
  RRFD_REQUIRE_MSG(v == "off" || v == "auto",
                   "RRFD_SUBMODEL_MEMO must be 'off' or 'auto'");
  return v == "off" ? core::Memo::kOff : core::Memo::kAuto;
}

core::EnumOptions mode_options(bool prune, core::Symmetry sym, int threads) {
  core::EnumOptions o;
  o.prune = prune;
  o.symmetry = sym;
  o.memo = bench_memo();
  if (threads > 0) o.runner = sweep::shard_runner(threads);
  return o;
}

bool same_result(const core::ImplicationResult& a,
                 const core::ImplicationResult& b) {
  return a.holds == b.holds && a.patterns_checked == b.patterns_checked &&
         a.counterexample.has_value() == b.counterexample.has_value() &&
         (!a.counterexample.has_value() ||
          *a.counterexample == *b.counterexample) &&
         a.stats.nodes == b.stats.nodes && a.stats.leaves == b.stats.leaves &&
         a.stats.pruned_subtrees == b.stats.pruned_subtrees &&
         a.stats.patterns_decided == b.stats.patterns_decided &&
         a.stats.expanded_roots == b.stats.expanded_roots &&
         a.stats.memo_hits == b.stats.memo_hits &&
         a.stats.memo_misses == b.stats.memo_misses &&
         a.stats.memo_entries == b.stats.memo_entries;
}

std::string rate_str(double per_s) {
  return cat(static_cast<std::int64_t>(per_s / 1e6), "M/s");
}

std::string ratio_str(double ratio) {
  const auto tenths = static_cast<std::int64_t>(ratio * 10);
  return cat(tenths / 10, ".", tenths % 10, "x");
}

void summary() {
  bench::banner(
      "E17 / pruned, symmetry-reduced, sharded exhaustive checking",
      "Workload 1: snapshot(1) => 2-uncertainty, n = 4, 1 round (50625\n"
      "patterns; the implication holds, so every pattern is decided).\n"
      "Workload 2: detector-S => cumulative(3), n = 4, 2 rounds\n"
      "(15^8 = 2562890625 patterns). patterns/s counts *decided*\n"
      "patterns: a pruned subtree decides all its leaves at once.");

  const auto snapshot = core::atomic_snapshot(1);
  const auto kunc = core::k_uncertainty(2);

  struct Mode {
    std::string label;
    bool prune;
    core::Symmetry sym;
  };
  const std::vector<Mode> modes = {
      {"baseline (no prune, no sym)", false, core::Symmetry::kOff},
      {"pruned", true, core::Symmetry::kOff},
      {"pruned + symmetry", true, core::Symmetry::kOn},
  };

  bench::Table t1({"mode", "nodes", "decided", "sym factor", "ms",
                   "decided/s", "vs baseline"});
  double baseline_rate = 0.0;
  for (const auto& m : modes) {
    const auto t0 = Clock::now();
    auto r = core::implies_exhaustive(*snapshot, *kunc, 4, 1,
                                      mode_options(m.prune, m.sym, 0));
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const double rate = static_cast<double>(r.patterns_checked) / s;
    if (baseline_rate == 0.0) baseline_rate = rate;
    t1.add_row({m.label, std::to_string(r.stats.nodes),
                std::to_string(r.patterns_checked),
                cat(r.stats.total_roots / r.stats.expanded_roots, "x"),
                std::to_string(s * 1e3), rate_str(rate),
                ratio_str(rate / baseline_rate)});
  }
  t1.print();
  g_baseline_patterns_per_s = baseline_rate;

  bench::summary_out()
      << "\nWorkload 2, serial vs sharded (same 256 shards, spliced in "
         "order):\n\n";
  const core::ImmortalProcess immortal;
  const core::CumulativeFaultBound bound(3);
  bench::Table t2({"threads", "nodes", "pruned subtrees", "decided", "ms",
                   "decided/s", "speedup", "identical"});
  core::ImplicationResult serial;
  double serial_s = 0.0;
  if (bench_memo() == core::Memo::kAuto) {
    // Untimed: the seed pass builds its subgroup tables on first use, a
    // one-off cost the serial row should not carry alone.
    (void)core::implies_exhaustive(immortal, bound, 4, 2);
  }
  for (const int threads : {1, 2, 4, 8}) {
    core::EnumOptions memo_opts;
    memo_opts.memo = bench_memo();
    const auto t0 = Clock::now();
    auto r =
        sweep::implies_exhaustive(immortal, bound, 4, 2, threads, memo_opts);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (threads == 1) {
      serial = r;
      serial_s = s;
    }
    t2.add_row({std::to_string(threads), std::to_string(r.stats.nodes),
                std::to_string(r.stats.pruned_subtrees),
                std::to_string(r.patterns_checked), std::to_string(s * 1e3),
                rate_str(static_cast<double>(r.patterns_checked) / s),
                ratio_str(serial_s / s),
                same_result(serial, r) ? "yes" : "NO"});
  }
  t2.print();
}

// ---------------------------------------------------------------------------
// Timed benchmarks (counters land in BENCH_rrfd.json)
// ---------------------------------------------------------------------------

void report_counters(benchmark::State& state,
                     const core::ImplicationResult& r) {
  using benchmark::Counter;
  state.counters["nodes_per_s"] = Counter(
      static_cast<double>(r.stats.nodes), Counter::kIsIterationInvariantRate);
  state.counters["decided_per_s"] =
      Counter(static_cast<double>(r.patterns_checked),
              Counter::kIsIterationInvariantRate);
  // Patterns decided per node expanded: 1.0 means no pruning leverage.
  state.counters["pruning_ratio"] =
      static_cast<double>(r.patterns_checked) /
      static_cast<double>(r.stats.nodes);
  state.counters["symmetry_factor"] =
      static_cast<double>(r.stats.total_roots) /
      static_cast<double>(r.stats.expanded_roots);
  state.counters["memo_hits"] = static_cast<double>(r.stats.memo_hits);
  state.counters["memo_misses"] = static_cast<double>(r.stats.memo_misses);
  state.counters["memo_entries"] = static_cast<double>(r.stats.memo_entries);
  // Absolute (time-independent) counts, so memo-on and memo-off runs of
  // the same workload can be diffed structurally: memoization must not
  // change either value. Both stay far below 2^53, so double is exact.
  state.counters["decided"] = static_cast<double>(r.patterns_checked);
  state.counters["nodes"] = static_cast<double>(r.stats.nodes);
}

/// Workload 1 under one enumeration mode: 0 = baseline, 1 = pruned,
/// 2 = pruned + symmetry.
void bm_submodel_modes_n4r1(benchmark::State& state) {
  const auto snapshot = core::atomic_snapshot(1);
  const auto kunc = core::k_uncertainty(2);
  const int mode = static_cast<int>(state.range(0));
  const auto opts = mode_options(
      mode >= 1, mode >= 2 ? core::Symmetry::kOn : core::Symmetry::kOff, 0);
  core::ImplicationResult r;
  for (auto _ : state) {
    r = core::implies_exhaustive(*snapshot, *kunc, 4, 1, opts);
    benchmark::DoNotOptimize(r.holds);
  }
  report_counters(state, r);
}
BENCHMARK(bm_submodel_modes_n4r1)->Arg(0)->Arg(1)->Arg(2)->ArgName("mode");

/// Workload 2, sharded over a worker pool; thread count is the argument.
void bm_submodel_sharded_n4r2(benchmark::State& state) {
  const core::ImmortalProcess immortal;
  const core::CumulativeFaultBound bound(3);
  const int threads = static_cast<int>(state.range(0));
  static core::ImplicationResult serial_reference;
  static bool have_reference = false;
  core::EnumOptions memo_opts;
  memo_opts.memo = bench_memo();
  core::ImplicationResult r;
  for (auto _ : state) {
    r = sweep::implies_exhaustive(immortal, bound, 4, 2, threads, memo_opts);
    benchmark::DoNotOptimize(r.holds);
  }
  if (threads == 1 && !have_reference) {
    serial_reference = r;
    have_reference = true;
  }
  report_counters(state, r);
  if (have_reference) {
    state.counters["matches_serial"] =
        same_result(serial_reference, r) ? 1.0 : 0.0;
  }
  if (g_baseline_patterns_per_s > 0.0) {
    // Decided-throughput of this run over the unpruned baseline's (the
    // summary measures the baseline on this same machine). The rate flag
    // divides the decided-per-baseline-second value by elapsed time,
    // yielding the dimensionless throughput ratio.
    state.counters["speedup_vs_baseline"] = benchmark::Counter(
        static_cast<double>(r.patterns_checked) / g_baseline_patterns_per_s,
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
// UseRealTime so the rate counters divide by wall time: with a worker
// pool the calling thread mostly sleeps, and CPU-time-based rates would
// report absurd throughput at threads > 1.
BENCHMARK(bm_submodel_sharded_n4r2)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

/// Workload 2 with the memoization policy as the argument (0 = off,
/// 1 = auto), serial, so one run records the memo speedup head-to-head.
/// The env knob is deliberately ignored here -- this benchmark *is* the
/// on/off comparison.
void bm_submodel_memo_n4r2(benchmark::State& state) {
  const core::ImmortalProcess immortal;
  const core::CumulativeFaultBound bound(3);
  core::EnumOptions opts;
  opts.memo = state.range(0) != 0 ? core::Memo::kAuto : core::Memo::kOff;
  core::ImplicationResult r;
  for (auto _ : state) {
    r = core::implies_exhaustive(immortal, bound, 4, 2, opts);
    benchmark::DoNotOptimize(r.holds);
  }
  report_counters(state, r);
}
BENCHMARK(bm_submodel_memo_n4r2)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("memo")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

/// E21 -- the 3-round equivalence detector-S <=> cumulative(3) at n = 4:
/// 15^12 = 129746337890625 patterns per direction, decidable in minutes
/// only through the transposition tables (the seed pass plus the inner
/// remaining-rounds tables collapse both the depth-1 and depth-2 state
/// repeats). Unmemoized this is ~50625x workload 2 -- hours -- so the
/// benchmark refuses to run with RRFD_SUBMODEL_MEMO=off rather than hang
/// a smoke job. full_space == 1 certifies that every pattern in both
/// directions was decided.
void bm_submodel_equiv_n4r3(benchmark::State& state) {
  if (bench_memo() == core::Memo::kOff) {
    state.SkipWithError(
        "RRFD_SUBMODEL_MEMO=off: 15^12 patterns per direction is not "
        "feasible unmemoized");
    return;
  }
  const core::ImmortalProcess immortal;
  const core::CumulativeFaultBound bound(3);
  core::EnumOptions opts;
  opts.memo = core::Memo::kAuto;
  // Memo hits account the replayed subtree's full node mass, so the
  // budget must cover the *unmemoized* work profile -- that is the point
  // of the exact-stats contract. 1e15 > 7 * 15^12 bounds any 3-round
  // n = 4 search.
  opts.node_budget = std::int64_t{1'000'000'000'000'000};
  core::EquivalenceResult r;
  for (auto _ : state) {
    r = core::equivalent_exhaustive(immortal, bound, 4, 3, opts);
    benchmark::DoNotOptimize(r.forward.holds);
  }
  report_counters(state, r.forward);
  const std::int64_t space = 129746337890625;  // 15^12
  state.counters["equivalent"] = r.equivalent() ? 1.0 : 0.0;
  state.counters["full_space"] =
      (r.forward.stats.patterns_decided == space &&
       r.backward.stats.patterns_decided == space)
          ? 1.0
          : 0.0;
}
BENCHMARK(bm_submodel_equiv_n4r3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace

RRFD_BENCH_MAIN(summary)
