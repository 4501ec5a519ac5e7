#include "runtime/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfenv>
#include <stdexcept>
#include <thread>

#include "runtime/schedulers.h"

namespace rrfd::runtime {
namespace {

TEST(Simulation, RunsEveryBodyToCompletion) {
  std::vector<int> hits(4, 0);
  Simulation sim(4, [&](Context& ctx) {
    ctx.step();
    ++hits[static_cast<std::size_t>(ctx.id())];
  });
  RoundRobinScheduler sched;
  SimOutcome out = sim.run(sched);
  EXPECT_EQ(out.completed, ProcessSet::all(4));
  EXPECT_TRUE(out.crashed.empty());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Simulation, ContextReportsIdAndN) {
  std::vector<ProcId> ids;
  Simulation sim(3, [&](Context& ctx) {
    EXPECT_EQ(ctx.n(), 3);
    ids.push_back(ctx.id());
  });
  RoundRobinScheduler sched;
  sim.run(sched);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<ProcId>{0, 1, 2}));
}

TEST(Simulation, StepsAreSerialized) {
  // A plain int incremented by all processes with read-modify-write across
  // a step boundary stays consistent only because execution is serialized
  // and steps are the only interleaving points.
  int counter = 0;
  Simulation sim(8, [&](Context& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.step();
      counter = counter + 1;  // not atomic on purpose
    }
  });
  RandomScheduler sched(/*seed=*/99);
  sim.run(sched);
  EXPECT_EQ(counter, 800);
}

TEST(Simulation, ScheduleIsDeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim(4, [](Context& ctx) {
      for (int i = 0; i < 5; ++i) ctx.step();
    });
    RandomScheduler sched(seed);
    return sim.run(sched).schedule;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Simulation, ScriptedScheduleIsFollowed) {
  std::vector<ProcId> order;
  Simulation sim(3, [&](Context& ctx) {
    ctx.step();
    order.push_back(ctx.id());
  });
  // First grants run bodies up to their first step; the next grant for
  // each runs body-after-step (recording) to completion.
  ScriptedScheduler sched({{2, false}, {0, false}, {2, false}, {1, false},
                           {0, false}, {1, false}});
  sim.run(sched);
  EXPECT_EQ(order, (std::vector<ProcId>{2, 0, 1}));
}

TEST(Simulation, CrashStopsAProcessMidProtocol) {
  std::vector<int> progress(3, 0);
  Simulation sim(3, [&](Context& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.step();
      ++progress[static_cast<std::size_t>(ctx.id())];
    }
  });
  // Crash process 1 immediately; let the others run.
  ScriptedScheduler sched({{1, true}});
  SimOutcome out = sim.run(sched);
  EXPECT_EQ(out.crashed, ProcessSet(3, {1}));
  EXPECT_EQ(out.completed, ProcessSet(3, {0, 2}));
  EXPECT_EQ(progress[1], 0);
  EXPECT_EQ(progress[0], 10);
  EXPECT_EQ(progress[2], 10);
}

TEST(Simulation, CrashLeavesPartialEffectsVisible) {
  // A crash between two writes must leave the first write visible -- the
  // crash semantics of asynchronous shared memory.
  int first = 0, second = 0;
  Simulation sim(2, [&](Context& ctx) {
    if (ctx.id() == 0) {
      ctx.step();
      first = 1;
      ctx.step();
      second = 1;
    } else {
      ctx.step();
    }
  });
  // p0: initial grant, then one step (performs first=1), then crash.
  ScriptedScheduler sched({{0, false}, {0, false}, {0, true}, {1, false},
                           {1, false}});
  SimOutcome out = sim.run(sched);
  EXPECT_TRUE(out.crashed.contains(0));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

TEST(Simulation, RandomCrashInjectionRespectsBudget) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Simulation sim(6, [](Context& ctx) {
      for (int i = 0; i < 20; ++i) ctx.step();
    });
    RandomScheduler sched(seed, /*crash_prob=*/0.1, /*max_crashes=*/2);
    SimOutcome out = sim.run(sched);
    EXPECT_LE(out.crashed.size(), 2);
    EXPECT_EQ(out.completed.size() + out.crashed.size(), 6);
  }
}

TEST(Simulation, ExceptionsInBodiesPropagate) {
  Simulation sim(2, [](Context& ctx) {
    ctx.step();
    if (ctx.id() == 1) throw std::runtime_error("protocol bug");
  });
  RoundRobinScheduler sched;
  EXPECT_THROW(sim.run(sched), std::runtime_error);
}

TEST(Simulation, StepBudgetThrows) {
  Simulation sim(2, [](Context& ctx) {
    for (;;) ctx.step();  // never terminates
  });
  RoundRobinScheduler sched;
  EXPECT_THROW(sim.run(sched, /*max_steps=*/100), StepBudgetExhausted);
}

TEST(Simulation, IsSingleUse) {
  Simulation sim(1, [](Context& ctx) { ctx.step(); });
  RoundRobinScheduler sched;
  sim.run(sched);
  EXPECT_THROW(sim.run(sched), ContractViolation);
}

TEST(Simulation, PerProcessBodies) {
  int a = 0, b = 0;
  std::vector<Simulation::Body> bodies;
  bodies.push_back([&](Context& ctx) {
    ctx.step();
    a = 1;
  });
  bodies.push_back([&](Context& ctx) {
    ctx.step();
    b = 2;
  });
  Simulation sim(std::move(bodies));
  RoundRobinScheduler sched;
  sim.run(sched);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Simulation, BodyWithNoStepsStillRuns) {
  bool ran = false;
  Simulation sim(1, [&](Context&) { ran = true; });
  RoundRobinScheduler sched;
  SimOutcome out = sim.run(sched);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(out.completed.contains(0));
}

TEST(Simulation, SchedulerPickMustBeRunnable) {
  // A scheduler that always picks 0, even after 0 finished.
  struct AlwaysZero final : Scheduler {
    Choice pick(const ProcessSet&, int) override { return {0, false}; }
  };
  Simulation sim(2, [](Context& ctx) { ctx.step(); });
  AlwaysZero sched;
  EXPECT_THROW(sim.run(sched), ContractViolation);
}

TEST(Simulation, BodiesRunOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  Simulation sim(4, [&](Context& ctx) {
    seen.push_back(std::this_thread::get_id());
    for (int i = 0; i < 3; ++i) {
      ctx.step();
      seen.push_back(std::this_thread::get_id());
    }
  });
  RandomScheduler sched(/*seed=*/5, /*crash_prob=*/0.1, /*max_crashes=*/1);
  sim.run(sched);
  EXPECT_GE(seen.size(), 4U);
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

/// Runs 3 outer bodies, each of which hosts a whole inner run of 4 bodies
/// on its own fiber, and checks both levels.
void run_nested() {
  std::vector<int> inner_steps(3, 0);
  Simulation outer(3, [&](Context& ctx) {
    ctx.step();
    Simulation inner(4, [](Context& c) {
      for (int i = 0; i < 5; ++i) c.step();
    });
    RandomScheduler sched(static_cast<std::uint64_t>(ctx.id()) + 1);
    inner_steps[static_cast<std::size_t>(ctx.id())] = inner.run(sched).steps;
    ctx.step();
  });
  RandomScheduler sched(/*seed=*/9);
  EXPECT_EQ(outer.run(sched).completed, ProcessSet::all(3));
  EXPECT_EQ(inner_steps, (std::vector<int>{24, 24, 24}));
}

TEST(Simulation, RunsInsideAnotherSimulationsBody) { run_nested(); }

/// The rounding mode arithmetic actually applies, read off 1 + 0.75 ulp
/// and -1 - 0.75 ulp. On x86-64 this is MXCSR, while fegetround() reads
/// the x87 control word.
int applied_rounding() {
  volatile double tiny = 0x3p-54;  // 0.75 ulp of 1.0
  const bool up_moves = 1.0 + tiny != 1.0;
  const bool down_moves = -1.0 - tiny != -1.0;
  if (up_moves) return down_moves ? FE_TONEAREST : FE_UPWARD;
  return down_moves ? FE_DOWNWARD : FE_TOWARDZERO;
}

TEST(Simulation, FloatingPointControlModeIsPerFiber) {
  // The rounding mode is callee-saved state: each fiber keeps the one it
  // set across its steps, and the host never sees a fiber's.
  struct HostCheck final : Scheduler {
    explicit HostCheck(Scheduler& inner) : inner_(inner) {}
    Choice pick(const ProcessSet& runnable, int step) override {
      if (std::fegetround() != FE_TONEAREST) ++mismatches;
      if (applied_rounding() != FE_TONEAREST) ++mismatches;
      return inner_.pick(runnable, step);
    }
    Scheduler& inner_;
    int mismatches = 0;
  };
  const std::array<int, 3> modes = {FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO};
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int fiber_mismatches = 0;
  Simulation sim(3, [&](Context& ctx) {
    const int mode = modes[static_cast<std::size_t>(ctx.id())];
    std::fesetround(mode);
    for (int s = 0; s < 5; ++s) {
      ctx.step();
      if (std::fegetround() != mode) ++fiber_mismatches;
      if (applied_rounding() != mode) ++fiber_mismatches;
    }
  });
  RandomScheduler random(/*seed=*/3);
  HostCheck sched(random);
  const SimOutcome out = sim.run(sched);
  const int host_rounding = std::fegetround();
  std::fesetround(FE_TONEAREST);  // so a failure here spoils no other test
  EXPECT_EQ(out.completed, ProcessSet::all(3));
  EXPECT_EQ(sched.mismatches, 0);
  EXPECT_EQ(fiber_mismatches, 0);
  EXPECT_EQ(host_rounding, FE_TONEAREST);
}

/// What the abandonment test observes of each body: whether it started,
/// how many steps it got past, and how often its locals were destroyed.
struct BodyLog {
  explicit BodyLog(int n)
      : started(static_cast<std::size_t>(n), false),
        progress(static_cast<std::size_t>(n), 0),
        unwound(static_cast<std::size_t>(n), 0) {}
  std::vector<bool> started;
  std::vector<int> progress;
  std::vector<int> unwound;
};

struct UnwindProbe {
  int& count;
  ~UnwindProbe() { ++count; }
};

/// Body i takes steps[i] steps (forever if negative) and then returns;
/// process `thrower` throws std::runtime_error after its second step.
Simulation::Body logged_body(BodyLog& log, std::vector<int> steps,
                             ProcId thrower = -1) {
  return [&log, steps, thrower](Context& ctx) {
    const auto i = static_cast<std::size_t>(ctx.id());
    UnwindProbe probe{log.unwound[i]};
    log.started[i] = true;
    for (int s = 0; steps[i] < 0 || s < steps[i]; ++s) {
      ctx.step();
      ++log.progress[i];
      if (ctx.id() == thrower && s == 1) throw std::runtime_error("bug");
    }
  };
}

TEST(Simulation, AbandonedRunUnwindsEveryStartedBody) {
  // Replays a fixed pick sequence verbatim, even a process that finished.
  struct Verbatim final : Scheduler {
    explicit Verbatim(std::vector<ProcId> picks) : picks_(std::move(picks)) {}
    Choice pick(const ProcessSet&, int step) override {
      return {picks_.at(static_cast<std::size_t>(step)), false};
    }
    std::vector<ProcId> picks_;
  };
  const auto expect_unwound_once = [](const BodyLog& log,
                                      const std::vector<int>& progress) {
    for (std::size_t i = 0; i < log.started.size(); ++i) {
      EXPECT_EQ(log.unwound[i], log.started[i] ? 1 : 0) << "process " << i;
    }
    // No body code ran after its crash point.
    EXPECT_EQ(log.progress, progress);
  };

  {
    // The scheduler picks process 0 after it finished: ContractViolation
    // while 1 and 2 are parked mid-body and 3 never started.
    BodyLog log(4);
    std::vector<int> progress;
    {
      Simulation sim(4, logged_body(log, {1, -1, -1, -1}));
      Verbatim sched({1, 2, 0, 1, 0, 0});
      EXPECT_THROW(sim.run(sched), ContractViolation);
      EXPECT_EQ(log.unwound, (std::vector<int>{1, 0, 0, 0}));
      progress = log.progress;
    }
    EXPECT_EQ(progress, (std::vector<int>{1, 1, 0, 0}));
    EXPECT_EQ(log.started, (std::vector<bool>{true, true, true, false}));
    expect_unwound_once(log, progress);
  }
  {
    // The step budget runs out while every body still loops.
    BodyLog log(3);
    std::vector<int> progress;
    {
      Simulation sim(3, logged_body(log, {-1, -1, -1}));
      RoundRobinScheduler sched;
      EXPECT_THROW(sim.run(sched, /*max_steps=*/10), StepBudgetExhausted);
      progress = log.progress;
    }
    EXPECT_EQ(progress, (std::vector<int>{3, 2, 2}));
    expect_unwound_once(log, progress);
  }
  {
    // One body throws; the others run to completion, then run() rethrows.
    BodyLog log(3);
    std::vector<int> progress;
    {
      Simulation sim(3, logged_body(log, {4, 4, 4}, /*thrower=*/1));
      RoundRobinScheduler sched;
      EXPECT_THROW(sim.run(sched), std::runtime_error);
      progress = log.progress;
    }
    EXPECT_EQ(progress, (std::vector<int>{4, 2, 4}));
    expect_unwound_once(log, progress);
  }
}

/// Runs 64 bodies that each fill a 32 KiB block on their stack and check
/// it after 10 steps. Two fibers handed one stack show up as a corrupted
/// block, or as two bodies whose blocks share an address.
void check_separate_stacks(const char* when) {
  SCOPED_TRACE(when);
  constexpr int kN = 64;
  using Block = std::array<int, 32 * 1024 / sizeof(int)>;  // 32 KiB
  std::vector<const Block*> live(kN, nullptr);
  std::vector<bool> intact(kN, false);
  std::vector<bool> alone(kN, false);
  Simulation sim(kN, [&](Context& ctx) {
    const auto i = static_cast<std::size_t>(ctx.id());
    Block block{};
    block.fill(ctx.id());
    live[i] = &block;  // escapes, so the stores and loads stay real
    for (int s = 0; s < 10; ++s) ctx.step();
    intact[i] = std::all_of(block.begin(), block.end(),
                            [&](int v) { return v == ctx.id(); });
    alone[i] = std::count(live.begin(), live.end(), &block) == 1;
    live[i] = nullptr;
  });
  RandomScheduler sched(/*seed=*/64);
  SimOutcome out = sim.run(sched);
  EXPECT_EQ(out.completed, ProcessSet::all(kN));
  EXPECT_EQ(out.steps, kN * 11);
  for (int i = 0; i < kN; ++i) {
    EXPECT_TRUE(intact[static_cast<std::size_t>(i)]) << "process " << i;
    EXPECT_TRUE(alone[static_cast<std::size_t>(i)]) << "process " << i;
  }
}

TEST(Simulation, SixtyFourProcessesKeepSeparateStacks) {
  // Stacks are cached per thread, so a new thread starts cold. The later
  // checks take stacks that earlier runs gave back: a stack given back
  // twice would be handed to two fibers at once.
  std::thread([] {
    check_separate_stacks("cold");
    Simulation small(2, [](Context& ctx) { ctx.step(); });
    RoundRobinScheduler sched;
    EXPECT_EQ(small.run(sched).completed, ProcessSet::all(2));
    check_separate_stacks("warm, after an n = 2 run");
    run_nested();
    check_separate_stacks("warm, after a nested run");
  }).join();
}

}  // namespace
}  // namespace rrfd::runtime
