#include "runtime/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cfenv>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "runtime/schedulers.h"
#include "util/json.h"

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

TEST(Simulation, EveryFiberStartsWithTheHostsRoundingMode) {
  // Under round-robin each process but the first starts from inside the
  // step() of the one before it, which has set another rounding mode.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  int mismatches = 0;
  Simulation sim(3, [&](Context& ctx) {
    if (std::fegetround() != FE_TONEAREST) ++mismatches;
    if (applied_rounding() != FE_TONEAREST) ++mismatches;
    std::fesetround(FE_UPWARD);
    ctx.step();
  });
  RoundRobinScheduler sched;
  const SimOutcome out = sim.run(sched);
  const int host_rounding = std::fegetround();
  std::fesetround(FE_TONEAREST);  // so a failure here spoils no other test
  EXPECT_EQ(out.completed, ProcessSet::all(3));
  EXPECT_EQ(mismatches, 0);
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

TEST(Simulation, SchedulerErrorsNeverReachABody) {
  // Round-robin until step 5, then throws: by then every body is parked
  // inside a step(), which must not see the scheduler's exception.
  struct ThrowsAtFive final : Scheduler {
    Choice pick(const ProcessSet& runnable, int step) override {
      if (step == 5) throw std::runtime_error("scheduler failed");
      return inner_.pick(runnable, step);
    }
    RoundRobinScheduler inner_;
  };
  BodyLog log(3);
  int intercepted = 0;
  {
    Simulation sim(3, [&](Context& ctx) {
      const auto i = static_cast<std::size_t>(ctx.id());
      UnwindProbe probe{log.unwound[i]};
      log.started[i] = true;
      for (;;) {
        try {
          ctx.step();
        } catch (const std::runtime_error&) {
          ++intercepted;
          throw;
        }
        ++log.progress[i];
      }
    });
    ThrowsAtFive sched;
    EXPECT_THROW(sim.run(sched), std::runtime_error);
  }
  EXPECT_EQ(intercepted, 0);
  EXPECT_EQ(log.progress, (std::vector<int>{1, 1, 0}));
  EXPECT_EQ(log.started, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(log.unwound, (std::vector<int>{1, 1, 1}));
}

TEST(Simulation, PicksMadeInsideAStepAreCheckedLikeTheHosts) {
  // Crashes 2, starts 0, which grants 1, which then picks `bad`: that pick
  // is made inside 1's step(). run() must reject it as if the host had
  // made it, with no body past its first step.
  struct Script final : Scheduler {
    explicit Script(Choice bad) : bad_(bad) {}
    Choice pick(const ProcessSet&, int) override {
      const std::array<Choice, 4> script = {
          {{2, true}, {0, false}, {1, false}, bad_}};
      return script.at(next_++);
    }
    Choice bad_;
    std::size_t next_ = 0;
  };
  const std::pair<Scheduler::Choice, std::string> cases[] = {
      {{2, false}, "scheduler picked a process that is not runnable"},
      {{2, true}, "scheduler picked a process that is not runnable"},
      {{7, false}, "precondition failed: (0 <= p && p < n_)"},
  };
  for (const auto& [bad, message] : cases) {
    int progress = 0;
    Simulation sim(3, [&](Context& ctx) {
      for (;;) {
        ctx.step();
        ++progress;
      }
    });
    Script sched(bad);
    try {
      sim.run(sched);
      ADD_FAILURE() << "run() returned";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(e.message(), message);
    }
    EXPECT_EQ(progress, 0);
  }
}

/// FNV-1a over what the scheduler saw and chose at every pick (runnable
/// mask, step, choice), then the outcome and each body's progress, for n
/// bodies where body i takes 3 + i steps under a crashing random
/// scheduler.
std::uint64_t scheduler_view_digest(int n, std::uint64_t seed) {
  struct Recorder final : Scheduler {
    Recorder(Scheduler& inner, std::string& bytes)
        : inner_(inner), bytes_(bytes) {}
    Choice pick(const ProcessSet& runnable, int step) override {
      const Choice c = inner_.pick(runnable, step);
      bytes_ += std::to_string(runnable.bits()) + ' ' + std::to_string(step) +
                ' ' + std::to_string(c.next) + (c.crash ? " c;" : " s;");
      return c;
    }
    Scheduler& inner_;
    std::string& bytes_;
  };
  std::string bytes;
  std::vector<int> progress(static_cast<std::size_t>(n), 0);
  Simulation sim(n, [&](Context& ctx) {
    for (int s = 0; s < 3 + ctx.id(); ++s) {
      ctx.step();
      ++progress[static_cast<std::size_t>(ctx.id())];
    }
  });
  RandomScheduler random(seed, /*crash_prob=*/0.05, /*max_crashes=*/n - 1);
  Recorder recorder(random, bytes);
  const SimOutcome out = sim.run(recorder);
  bytes += '|' + std::to_string(out.completed.bits()) + ' ' +
           std::to_string(out.crashed.bits()) + ' ' +
           std::to_string(out.steps) + '|';
  for (ProcId p : out.schedule) bytes += std::to_string(p) + ' ';
  bytes += '|';
  for (int v : progress) bytes += std::to_string(v) + ' ';
  return fnv1a(bytes);
}

TEST(Simulation, SchedulerViewIsPinned) {
  // Captured from the runtime whose host made every pick; a runtime that
  // picks elsewhere must show each pick the same view in the same order.
  struct Case {
    int n;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {2, 1, 9092305196047850579u},
      {2, 2, 4563777872836412853u},
      {2, 3, 18142902400992851630u},
      {2, 4, 8774141718759072507u},
      {4, 1, 3921091964169768692u},
      {4, 2, 2907459828924773765u},
      {4, 3, 13469954701525335085u},
      {4, 4, 5378957027001988921u},
      {8, 1, 3540400670348746469u},
      {8, 2, 7984108439630474498u},
      {8, 3, 4653497113065874807u},
      {8, 4, 11031635146486552166u},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(scheduler_view_digest(c.n, c.seed), c.digest)
        << "n = " << c.n << ", seed = " << c.seed;
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
