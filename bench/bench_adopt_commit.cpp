// E10 -- Section 4.2: the adopt-commit protocol.
//
// Paper claim: the two-array protocol solves adopt-commit wait-free
// (n-1-resilient) in SWMR shared memory. The summary reports the step
// complexity (2 writes + 2n reads per process), exhaustive safety for
// n = 2 (all interleavings, with and without a crash), and randomized
// safety at larger n.
#include "agreement/adopt_commit.h"

#include "bench_util.h"
#include "runtime/explorer.h"
#include "runtime/schedulers.h"
#include "sweep/sharded_explorer.h"

namespace {

using namespace rrfd;

struct SafetyStats {
  long runs = 0;
  long violations = 0;
  long commits = 0;
  long adopts = 0;
};

SafetyStats random_sweep(int n, int trials) {
  SafetyStats stats;
  std::vector<int> proposals;
  for (int i = 0; i < n; ++i) proposals.push_back(i % 2);
  for (int trial = 0; trial < trials; ++trial) {
    agreement::AdoptCommit ac(n);
    std::vector<std::optional<agreement::AdoptCommitResult>> results(
        static_cast<std::size_t>(n));
    runtime::Simulation sim(n, [&](runtime::Context& ctx) {
      results[static_cast<std::size_t>(ctx.id())] =
          ac.run(ctx, proposals[static_cast<std::size_t>(ctx.id())]);
    });
    runtime::RandomScheduler sched(
        1000u * static_cast<unsigned>(trial) + static_cast<unsigned>(n),
        /*crash_prob=*/0.01, /*max_crashes=*/n - 1);
    sim.run(sched);
    ++stats.runs;

    std::optional<int> committed;
    bool bad = false;
    for (const auto& r : results) {
      if (!r) continue;
      if (r->commit) {
        if (committed && *committed != r->value) bad = true;
        committed = r->value;
        ++stats.commits;
      } else {
        ++stats.adopts;
      }
    }
    if (committed) {
      for (const auto& r : results) {
        if (r && r->value != *committed) bad = true;
      }
    }
    stats.violations += bad;
  }
  return stats;
}

struct ExploreResult {
  runtime::ScheduleExplorer::Stats stats;
  long violations = 0;
};

/// E10b: every schedule of adopt-commit at n = 2 with distinct proposals
/// and at most `crashes` crashes, explored by sweep::explore_sharded on
/// `threads` workers, counting agreement violations.
ExploreResult explore_e10b(int crashes, int threads) {
  runtime::ScheduleExplorer::Options opts;
  opts.max_schedules = 5000000;
  opts.max_crashes = crashes;
  // One schedule check; `violations` is nullptr for the probe run.
  auto check_one = [](long* violations) {
    return [violations](runtime::Scheduler& sched) {
      agreement::AdoptCommit ac(2);
      std::vector<std::optional<agreement::AdoptCommitResult>> results(2);
      runtime::Simulation sim(2, [&](runtime::Context& ctx) {
        results[static_cast<std::size_t>(ctx.id())] =
            ac.run(ctx, ctx.id());  // distinct proposals 0, 1
      });
      sim.run(sched);
      if (violations == nullptr) return;
      std::optional<int> committed;
      for (const auto& r : results) {
        if (r && r->commit) {
          if (committed && *committed != r->value) ++*violations;
          committed = r->value;
        }
      }
      if (committed) {
        for (const auto& r : results) {
          if (r && r->value != *committed) ++*violations;
        }
      }
    };
  };
  // Sharded by root decision. Each shard counts into its own slot --
  // summed in shard order below, so the total matches the serial
  // explorer's exactly.
  std::vector<long> per_shard(16, 0);
  ExploreResult result;
  result.stats = sweep::explore_sharded(
      opts,
      [&](int shard) {
        return check_one(shard < 0
                             ? nullptr
                             : &per_shard[static_cast<std::size_t>(shard)]);
      },
      threads);
  for (long v : per_shard) result.violations += v;
  return result;
}

void summary() {
  bench::banner(
      "E10 / Section 4.2: the adopt-commit protocol",
      "Claim: wait-free adopt-commit from two SWMR register arrays.\n"
      "Steps per process: 2 writes + 2n reads = 2n + 2.");
  {
    bench::Table table({"n", "steps/process (exact)", "runs", "violations",
                        "commit outcomes", "adopt outcomes"});
    for (int n : {2, 3, 5, 8, 16, 32}) {
      SafetyStats stats = random_sweep(n, 150);
      table.add_row({std::to_string(n), std::to_string(2 * n + 2),
                     std::to_string(stats.runs),
                     std::to_string(stats.violations),
                     std::to_string(stats.commits),
                     std::to_string(stats.adopts)});
    }
    table.print();
  }
  {
    bench::banner("E10b / exhaustive model checking (n = 2)",
                  "Every schedule, and every schedule with one crash.");
    bench::Table table({"configuration", "schedules", "exhausted",
                        "violations"});
    for (int crashes : {0, 1}) {
      const ExploreResult r = explore_e10b(crashes, sweep::threads_from_env());
      table.add_row({"n=2, crashes<=" + std::to_string(crashes),
                     std::to_string(r.stats.schedules),
                     r.stats.exhausted ? "yes" : "no",
                     std::to_string(r.violations)});
    }
    table.print();
  }
}

void bm_adopt_commit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    agreement::AdoptCommit ac(n);
    runtime::Simulation sim(n, [&](runtime::Context& ctx) {
      benchmark::DoNotOptimize(ac.run(ctx, ctx.id() % 2));
    });
    runtime::RandomScheduler sched(seed++);
    sim.run(sched);
  }
  state.counters["steps/proc"] = 2 * n + 2;
}
BENCHMARK(bm_adopt_commit)->Arg(2)->Arg(8)->Arg(32)->ArgName("n");

/// E10b end to end, serial against 4 workers (RRFD_SWEEP_THREADS is
/// ignored: the thread count is the argument). UseRealTime, since the
/// calling thread mostly waits when the shards run on workers.
void bm_explore_e10b(benchmark::State& state) {
  const int crashes = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  long schedules = 0;
  for (auto _ : state) {
    const ExploreResult r = explore_e10b(crashes, threads);
    schedules = r.stats.schedules;
    benchmark::DoNotOptimize(r.violations);
  }
  state.counters["schedules"] = static_cast<double>(schedules);
}
BENCHMARK(bm_explore_e10b)
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->ArgNames({"crashes", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

RRFD_BENCH_MAIN(summary)
