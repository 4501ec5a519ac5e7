#include "runtime/explorer.h"

#include <gtest/gtest.h>

#include <set>

#include "runtime/schedulers.h"

namespace rrfd::runtime {
namespace {

TEST(ScheduleExplorer, SingleProcessHasOneScheduleishPath) {
  ScheduleExplorer explorer;
  int runs = 0;
  auto stats = explorer.explore([&](Scheduler& sched) {
    Simulation sim(1, [](Context& ctx) {
      ctx.step();
      ctx.step();
    });
    sim.run(sched);
    ++runs;
  });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.schedules, 1);
  EXPECT_EQ(runs, 1);
}

TEST(ScheduleExplorer, EnumeratesAllInterleavings) {
  // Two processes, one step each: grants are (start_a, act_a) and
  // (start_b, act_b); the explorer must cover every legal interleaving of
  // the two grant pairs: C(4,2) = 6 schedules.
  ScheduleExplorer explorer;
  std::set<std::vector<ProcId>> schedules;
  auto stats = explorer.explore([&](Scheduler& sched) {
    Simulation sim(2, [](Context& ctx) { ctx.step(); });
    SimOutcome out = sim.run(sched);
    schedules.insert(out.schedule);
  });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.schedules, 6);
  EXPECT_EQ(schedules.size(), 6u);
}

TEST(ScheduleExplorer, FindsRaceOutcomes) {
  // Classic lost-update race: both processes read, then write read+1.
  // Exhaustive exploration must find both the serialized outcome (2) and
  // the lost-update outcome (1).
  std::set<int> outcomes;
  ScheduleExplorer explorer;
  explorer.explore([&](Scheduler& sched) {
    int reg = 0;
    Simulation sim(2, [&](Context& ctx) {
      ctx.step();
      const int seen = reg;  // read
      ctx.step();
      reg = seen + 1;  // write
    });
    sim.run(sched);
    outcomes.insert(reg);
  });
  EXPECT_EQ(outcomes, (std::set<int>{1, 2}));
}

TEST(ScheduleExplorer, RespectsMaxSchedules) {
  ScheduleExplorer::Options opts;
  opts.max_schedules = 3;
  ScheduleExplorer explorer(opts);
  int runs = 0;
  auto stats = explorer.explore([&](Scheduler& sched) {
    Simulation sim(3, [](Context& ctx) { ctx.step(); });
    sim.run(sched);
    ++runs;
  });
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.schedules, 3);
  EXPECT_EQ(runs, 3);
}

TEST(ScheduleExplorer, CrashBudgetAddsCrashBranches) {
  // With a crash budget, some schedules must end with a crashed process.
  ScheduleExplorer::Options opts;
  opts.max_crashes = 1;
  ScheduleExplorer explorer(opts);
  bool saw_crash = false, saw_clean = false;
  auto stats = explorer.explore([&](Scheduler& sched) {
    Simulation sim(2, [](Context& ctx) { ctx.step(); });
    SimOutcome out = sim.run(sched);
    saw_crash = saw_crash || !out.crashed.empty();
    saw_clean = saw_clean || out.crashed.empty();
  });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_clean);
}

TEST(ScheduleExplorer, PropagatesAssertionFailures) {
  ScheduleExplorer explorer;
  EXPECT_THROW(explorer.explore([&](Scheduler& sched) {
    Simulation sim(2, [](Context& ctx) { ctx.step(); });
    SimOutcome out = sim.run(sched);
    if (out.schedule.front() == 1) throw std::runtime_error("found it");
  }),
               std::runtime_error);
}

/// Records the full choice sequence (steps *and* crashes) of one run;
/// distinct explored schedules have distinct sequences by construction,
/// so duplicates indicate stale backtracking state.
class RecordingScheduler final : public Scheduler {
 public:
  RecordingScheduler(Scheduler& inner,
                     std::vector<std::pair<ProcId, bool>>& out)
      : inner_(inner), out_(out) {}

  Choice pick(const ProcessSet& runnable, int step) override {
    Choice c = inner_.pick(runnable, step);
    out_.emplace_back(c.next, c.crash);
    return c;
  }

 private:
  Scheduler& inner_;
  std::vector<std::pair<ProcId, bool>>& out_;
};

/// Independent reference: counts the decision tree of a system in which
/// process i needs grants[i] scheduler grants (body steps + 1) and up to
/// `crashes_left` runnable processes may be crashed instead of stepped.
long reference_count(std::vector<int>& grants, std::uint64_t crashed,
                     int crashes_left) {
  const int n = static_cast<int>(grants.size());
  long total = 0;
  bool any_runnable = false;
  for (int p = 0; p < n; ++p) {
    if ((crashed >> p) & 1 || grants[static_cast<std::size_t>(p)] == 0) {
      continue;
    }
    any_runnable = true;
    --grants[static_cast<std::size_t>(p)];
    total += reference_count(grants, crashed, crashes_left);
    ++grants[static_cast<std::size_t>(p)];
  }
  if (crashes_left > 0) {
    for (int p = 0; p < n; ++p) {
      if ((crashed >> p) & 1 || grants[static_cast<std::size_t>(p)] == 0) {
        continue;
      }
      total += reference_count(grants, crashed | (1ULL << p), crashes_left - 1);
    }
  }
  return any_runnable ? total : 1;
}

TEST(ScheduleExplorer, VariableDepthCrashTreesCountExactly) {
  // Asymmetric step counts + crash budgets make schedule depth vary:
  // a schedule that crashes a process early terminates with fewer
  // decision points than its neighbors. The explorer must still visit
  // every schedule exactly once (count pinned by an independent
  // enumerator, uniqueness by the recorded choice sequences) -- the
  // regression for the stale-deeper-node truncation bug.
  struct Case {
    std::vector<int> steps;
    int crashes;
  };
  for (const Case& c : {Case{{1, 3}, 0}, Case{{1, 3}, 1}, Case{{1, 3}, 2},
                        Case{{2, 1}, 1}, Case{{1, 1, 2}, 1}}) {
    ScheduleExplorer::Options opts;
    opts.max_schedules = 1000000;
    opts.max_crashes = c.crashes;
    ScheduleExplorer explorer(opts);

    std::set<std::vector<std::pair<ProcId, bool>>> seen;
    long runs = 0;
    auto stats = explorer.explore([&](Scheduler& sched) {
      std::vector<std::pair<ProcId, bool>> choices;
      RecordingScheduler recorder(sched, choices);
      std::vector<Simulation::Body> bodies;
      for (int steps : c.steps) {
        bodies.push_back([steps](Context& ctx) {
          for (int i = 0; i < steps; ++i) ctx.step();
        });
      }
      Simulation sim(std::move(bodies));
      sim.run(recorder);
      ++runs;
      EXPECT_TRUE(seen.insert(choices).second)
          << "duplicate schedule at run " << runs;
    });

    std::vector<int> grants;
    for (int steps : c.steps) grants.push_back(steps + 1);
    const long expected = reference_count(grants, 0, c.crashes);
    EXPECT_TRUE(stats.exhausted);
    EXPECT_EQ(stats.schedules, expected);
    EXPECT_EQ(static_cast<long>(seen.size()), expected);
  }
}

TEST(ScheduleExplorer, ShardsPartitionTheTree) {
  // root_alternatives + explore_shard over every shard, spliced in shard
  // order, must reproduce the serial explore() visit sequence exactly.
  ScheduleExplorer::Options opts;
  opts.max_crashes = 1;
  auto run_one_collecting = [](std::vector<std::vector<ProcId>>* sink) {
    return [sink](Scheduler& sched) {
      Simulation sim(2, [](Context& ctx) {
        ctx.step();
        ctx.step();
      });
      SimOutcome out = sim.run(sched);
      if (sink) sink->push_back(out.schedule);
    };
  };

  std::vector<std::vector<ProcId>> serial;
  ScheduleExplorer explorer(opts);
  auto serial_stats = explorer.explore(run_one_collecting(&serial));
  ASSERT_TRUE(serial_stats.exhausted);

  ScheduleExplorer prober(opts);
  auto root = prober.root_alternatives(run_one_collecting(nullptr));
  // Two runnable processes, crash budget available: step 0/1, crash 0/1.
  ASSERT_EQ(root.size(), 4u);

  std::vector<std::vector<ProcId>> spliced;
  long total = 0;
  for (std::size_t shard = 0; shard < root.size(); ++shard) {
    ScheduleExplorer shard_explorer(opts);
    auto stats = shard_explorer.explore_shard(
        root, shard, run_one_collecting(&spliced), total);
    EXPECT_TRUE(stats.exhausted);
    total += stats.schedules;
  }
  EXPECT_EQ(total, serial_stats.schedules);
  EXPECT_EQ(spliced, serial);
}

TEST(ScheduleExplorer, ExploreShardRejectsARootListOfAnotherShape) {
  // A decision point is stored as its runnable mask, so explore_shard
  // takes only the shape root_alternatives() returns: each process's
  // step by id, then possibly each one's crash in the same order.
  const auto run_one = [](Scheduler& sched) {
    Simulation sim(2, [](Context& ctx) { ctx.step(); });
    sim.run(sched);
  };
  using C = Scheduler::Choice;
  const std::vector<std::vector<C>> bad = {
      {{1, false}, {0, false}},                       // not by id
      {{0, false}, {1, false}, {0, true}},            // half the crashes
      {{0, false}, {1, false}, {1, true}, {0, true}}, // crashes reordered
      {{0, true}, {1, true}},                         // crashes, no steps
      {{0, false}, {64, false}},                      // no such process
  };
  for (const auto& root : bad) {
    ScheduleExplorer explorer;
    EXPECT_THROW(explorer.explore_shard(root, 1, run_one), ContractViolation);
  }
}

TEST(ScheduleExplorer, ExhaustiveCountGrowsWithProgramLength) {
  auto count = [](int steps_per_proc) {
    ScheduleExplorer::Options opts;
    opts.max_schedules = 1000000;
    ScheduleExplorer explorer(opts);
    auto stats = explorer.explore([&](Scheduler& sched) {
      Simulation sim(2, [steps_per_proc](Context& ctx) {
        for (int i = 0; i < steps_per_proc; ++i) ctx.step();
      });
      sim.run(sched);
    });
    EXPECT_TRUE(stats.exhausted);
    return stats.schedules;
  };
  // Interleavings of two sequences of g grants each: C(2g, g).
  EXPECT_EQ(count(1), 6);    // C(4,2)
  EXPECT_EQ(count(2), 20);   // C(6,3)
  EXPECT_EQ(count(3), 70);   // C(8,4)
}

}  // namespace
}  // namespace rrfd::runtime
