// The sweep determinism contract (DESIGN.md "Sweep determinism"):
// counter-derived RNG streams, trial-ordered reduction, byte-identical
// results at any thread count, serial execution under tracing, and
// serial-equivalent sharded exhaustive exploration.
#include "sweep/sweep.h"

#include <gtest/gtest.h>

#include <barrier>
#include <cstdlib>
#include <set>
#include <thread>

#include "agreement/adopt_commit.h"
#include "agreement/one_round_kset.h"
#include "agreement/tasks.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "runtime/schedulers.h"
#include "sweep/sharded_explorer.h"
#include "trace/trace.h"

namespace rrfd::sweep {
namespace {

TEST(Sweep, ResultsAreTrialOrdered) {
  const auto results = run(
      100, 7, [](int trial, Rng&) { return trial * trial; }, /*threads=*/4);
  ASSERT_EQ(results.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Sweep, ZeroTrials) {
  const auto results =
      run(0, 7, [](int, Rng&) { return 1; }, /*threads=*/8);
  EXPECT_TRUE(results.empty());
}

TEST(Sweep, RngStreamsMatchSerialDerivation) {
  // Contract item 1: trial i's generator is Rng::stream(seed, i) exactly,
  // independent of worker scheduling.
  const std::uint64_t seed = 99;
  const auto drawn = run(
      32, seed, [](int, Rng& rng) { return rng(); }, /*threads=*/4);
  for (int i = 0; i < 32; ++i) {
    Rng expect = Rng::stream(seed, static_cast<std::uint64_t>(i));
    EXPECT_EQ(drawn[static_cast<std::size_t>(i)], expect());
  }
}

/// An E1-shaped trial: one-round k-set agreement under a seeded
/// k-uncertainty adversary, digested to a single word.
std::uint64_t e1_trial(int n, int k, Rng& rng) {
  std::vector<agreement::OneRoundKSet> ps;
  for (int i = 0; i < n; ++i) ps.emplace_back(i + 1);
  core::KUncertaintyAdversary adv(n, k, rng());
  auto result = core::run_rounds(ps, adv);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& d : result.decisions) {
    digest ^= static_cast<std::uint64_t>(d.value_or(-1));
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

TEST(Sweep, SerialAndParallelAreByteIdentical) {
  // Contract item 3 over a full E1-style sweep (EXPERIMENTS.md E1).
  auto fn = [](int, Rng& rng) { return e1_trial(16, 2, rng); };
  const auto serial = run(200, 0xE1, fn, /*threads=*/1);
  for (int threads : {2, 3, 8}) {
    EXPECT_EQ(run(200, 0xE1, fn, threads), serial)
        << "results diverged at " << threads << " threads";
  }
}

TEST(Sweep, LowestFailingTrialIsRethrown) {
  auto fn = [](int trial, Rng&) -> int {
    if (trial == 3 || trial == 7) {
      throw std::runtime_error("trial " + std::to_string(trial));
    }
    return trial;
  };
  for (int threads : {1, 4}) {
    try {
      run(16, 0, fn, threads);
      FAIL() << "expected a throw at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 3");
    }
  }
}

TEST(Sweep, TracingForcesSerialInTrialOrder) {
  trace::CaptureRecorder capture;
  trace::ScopedTrace scoped(&capture);
  const auto main_thread = std::this_thread::get_id();
  std::vector<int> order;
  (void)run(
      20, 1,
      [&](int trial, Rng&) {
        EXPECT_EQ(std::this_thread::get_id(), main_thread);
        order.push_back(trial);
        trace::record(trace::EventKind::kEmit, trace::Substrate::kEngine,
                      trial, 0);
        return trial;
      },
      /*threads=*/8);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(capture.events()[static_cast<std::size_t>(i)].proc, i);
  }
}

TEST(Sweep, ThreadsFromEnvParsesStrictly) {
  // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
  ASSERT_EQ(setenv("RRFD_SWEEP_THREADS", "8", 1), 0);
  EXPECT_EQ(threads_from_env(), 8);
  // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
  ASSERT_EQ(setenv("RRFD_SWEEP_THREADS", "0", 1), 0);
  EXPECT_EQ(threads_from_env(), 0);
  // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
  ASSERT_EQ(setenv("RRFD_SWEEP_THREADS", "eight", 1), 0);
  EXPECT_THROW(threads_from_env(), ContractViolation);
  // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
  ASSERT_EQ(setenv("RRFD_SWEEP_THREADS", "-2", 1), 0);
  EXPECT_THROW(threads_from_env(), ContractViolation);
  // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
  ASSERT_EQ(unsetenv("RRFD_SWEEP_THREADS"), 0);
  EXPECT_EQ(threads_from_env(), 0);
}

TEST(Sweep, ThreadsFromEnvRejectsEveryNonDigitForm) {
  // Golden regression for the strtol-era holes: leading whitespace and a
  // '+' prefix used to parse as valid, and values past INT_MAX depended
  // on strtol's clamping. The contract is digits-only in [0, 4096]; every
  // deviation is one clean ContractViolation, never a silent fallback.
  for (const char* bad : {
           " 8",                      // leading whitespace (strtol accepted)
           "8 ",                      // trailing whitespace
           "+8",                      // sign prefix (strtol accepted)
           "-0",                      // signed zero is still signed
           "4097",                    // above the documented cap
           "99999999999999999999",    // would overflow long long
           "2147483648",              // INT_MAX + 1 (strtol clamps to LONG_MAX)
           "0x8",                     // hex is not digits-only
           "8\n",                     // stray control character
       }) {
    // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
    ASSERT_EQ(setenv("RRFD_SWEEP_THREADS", bad, 1), 0);
    EXPECT_THROW(threads_from_env(), ContractViolation)
        << "accepted RRFD_SWEEP_THREADS=\"" << bad << '"';
  }
  // The boundary itself is valid.
  // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
  ASSERT_EQ(setenv("RRFD_SWEEP_THREADS", "4096", 1), 0);
  EXPECT_EQ(threads_from_env(), 4096);
  // rrfd-lint: allow(no-env-sideband) -- this test exercises the hook itself
  ASSERT_EQ(unsetenv("RRFD_SWEEP_THREADS"), 0);
}

TEST(Sweep, ConcurrentThrowsLeaveNoEmptySlot) {
  // Regression for the empty-slot hazard in run(): when many trials
  // throw at once from different workers, the surviving results must
  // still fill every non-throwing slot, the lowest failing trial must
  // win the rethrow race, and no worker may touch an unfilled slot
  // (run under TSan in CI; the ENSURE in run() guards the Release path).
  auto fn = [](int trial, Rng&) -> int {
    if (trial % 3 == 0) {
      throw std::runtime_error("trial " + std::to_string(trial));
    }
    return trial;
  };
  for (int threads : {2, 4, 8}) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      try {
        run(64, 0, fn, threads);
        FAIL() << "expected a throw at " << threads << " threads";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "trial 0");
      }
    }
  }
  // All-throwing sweeps exercise the path where *every* slot is empty.
  auto always = [](int trial, Rng&) -> int {
    throw std::runtime_error("trial " + std::to_string(trial));
  };
  try {
    run(32, 0, always, /*threads=*/8);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 0");
  }
}

// ---------------------------------------------------------------------------
// The helper pool behind run_indexed.
// ---------------------------------------------------------------------------

TEST(Sweep, CallerRunsAJobOfItsOwnBatch) {
  // Every job holds its thread at the barrier until all four have
  // arrived, so each of the four participants runs exactly one job --
  // and the calling thread, which drains its own batch, is one of them.
  std::barrier arrive(4);
  const auto ids = run(
      4, 0,
      [&](int, Rng&) {
        arrive.arrive_and_wait();
        return std::this_thread::get_id();
      },
      /*threads=*/4);
  const std::set<std::thread::id> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1u);
}

TEST(Sweep, NestedParallelRunsComplete) {
  // A job that runs its own parallel sweep still completes: its thread
  // drains the inner batch even when no helper is free.
  const auto outer_job = [](int threads) {
    return [threads](int outer, Rng& rng) {
      return run(
          8, rng(),
          [outer](int, Rng& r) { return e1_trial(6 + outer % 3, 2, r); },
          threads);
    };
  };
  EXPECT_EQ(run(8, 0x5EED, outer_job(4), /*threads=*/4),
            run(8, 0x5EED, outer_job(1), /*threads=*/1));
}

TEST(Sweep, ConcurrentCallersMatchSerial) {
  // Plain threads calling sweep::run at once, as the job server's
  // workers do, share one pool; each still gets the serial results.
  auto fn = [](int, Rng& rng) { return e1_trial(8, 2, rng); };
  std::vector<std::vector<std::uint64_t>> serial;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    serial.push_back(run(50, seed, fn, /*threads=*/1));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int repeat = 0; repeat < 20; ++repeat) {
        if (run(50, c, fn, /*threads=*/2) != serial[c]) ++mismatches[c];
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

// ---------------------------------------------------------------------------
// Sharded exhaustive exploration.
// ---------------------------------------------------------------------------

/// Signature of one explored schedule: the step sequence plus who crashed.
struct Signature {
  std::vector<runtime::ProcId> schedule;
  std::uint64_t crashed = 0;
  std::vector<int> outcome;

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Runs the n = 2 adopt-commit protocol (EXPERIMENTS.md E10's exhaustive
/// model check) under one schedule and records its signature.
Signature run_adopt_commit(runtime::Scheduler& sched) {
  agreement::AdoptCommit ac(2);
  std::vector<std::optional<agreement::AdoptCommitResult>> results(2);
  runtime::Simulation sim(2, [&](runtime::Context& ctx) {
    results[static_cast<std::size_t>(ctx.id())] = ac.run(ctx, ctx.id());
  });
  auto out = sim.run(sched);
  Signature sig;
  sig.schedule = out.schedule;
  sig.crashed = out.crashed.bits();
  for (const auto& r : results) {
    sig.outcome.push_back(r ? (r->commit ? 100 + r->value : r->value) : -1);
  }
  return sig;
}

TEST(ShardedExplorer, AdoptCommitMatchesSerialByteForByte) {
  for (int crashes : {0, 1}) {
    runtime::ScheduleExplorer::Options opts;
    opts.max_schedules = 5000000;
    opts.max_crashes = crashes;

    std::vector<Signature> serial;
    runtime::ScheduleExplorer explorer(opts);
    auto serial_stats = explorer.explore([&](runtime::Scheduler& sched) {
      serial.push_back(run_adopt_commit(sched));
    });
    ASSERT_TRUE(serial_stats.exhausted);

    // Sharded, 4 workers; per-shard collections spliced in shard order
    // must reproduce the serial visit sequence exactly.
    std::vector<std::vector<Signature>> per_shard(16);
    auto stats = explore_sharded(
        opts,
        [&](int shard) -> std::function<void(runtime::Scheduler&)> {
          if (shard < 0) {
            return [](runtime::Scheduler& sched) { run_adopt_commit(sched); };
          }
          auto* sink = &per_shard[static_cast<std::size_t>(shard)];
          return [sink](runtime::Scheduler& sched) {
            sink->push_back(run_adopt_commit(sched));
          };
        },
        /*threads=*/4);
    EXPECT_TRUE(stats.exhausted);
    EXPECT_EQ(stats.schedules, serial_stats.schedules);

    std::vector<Signature> spliced;
    for (const auto& shard : per_shard) {
      spliced.insert(spliced.end(), shard.begin(), shard.end());
    }
    EXPECT_EQ(spliced, serial) << "crashes<=" << crashes;
  }
}

TEST(ShardedExplorer, NoDecisionPointTreeRunsOnce) {
  runtime::ScheduleExplorer::Options opts;
  int probe_runs = 0;
  int collected_runs = 0;
  auto stats = explore_sharded(
      opts,
      [&](int shard) -> std::function<void(runtime::Scheduler&)> {
        int* counter = shard < 0 ? &probe_runs : &collected_runs;
        return [counter](runtime::Scheduler& sched) {
          runtime::Simulation sim(1, [](runtime::Context& ctx) { ctx.step(); });
          sim.run(sched);
          ++*counter;
        };
      },
      /*threads=*/4);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.schedules, 1);
  EXPECT_EQ(collected_runs, 1);
}

TEST(ShardedExplorer, TracedRunMatchesSerialTrace) {
  // Contract item 4 for exhaustive exploration: with a sink attached, the
  // sharded explorer's event stream is byte-identical to the serial one
  // (shards run sequentially with accumulated ordinals; probe silenced).
  auto run_one = [](runtime::Scheduler& sched) {
    runtime::Simulation sim(2, [](runtime::Context& ctx) { ctx.step(); });
    sim.run(sched);
  };

  trace::CaptureRecorder serial_capture;
  {
    trace::ScopedTrace scoped(&serial_capture);
    runtime::ScheduleExplorer explorer;
    auto stats = explorer.explore(run_one);
    ASSERT_TRUE(stats.exhausted);
  }

  trace::CaptureRecorder sharded_capture;
  {
    trace::ScopedTrace scoped(&sharded_capture);
    auto stats = explore_sharded(
        runtime::ScheduleExplorer::Options{},
        [&](int) -> std::function<void(runtime::Scheduler&)> {
          return run_one;
        },
        /*threads=*/8);
    ASSERT_TRUE(stats.exhausted);
  }
  EXPECT_EQ(sharded_capture.events(), serial_capture.events());
}

}  // namespace
}  // namespace rrfd::sweep
