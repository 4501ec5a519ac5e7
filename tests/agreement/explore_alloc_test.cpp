// Heap allocations of a replayed schedule. E10b (adopt-commit at n = 2,
// every crash-free schedule) is explored with the run_one shape perfbench's
// sim-runtime uses, under a global operator new that counts. A schedule
// may allocate only its run's fixed few objects: the register arrays, the
// results vector, the run's bookkeeping. Nothing per decision point,
// per step or per collect.
//
// This is a binary of its own because it replaces the global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "agreement/adopt_commit.h"
#include "runtime/explorer.h"
#include "runtime/schedulers.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<long> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load()) g_allocations.fetch_add(1);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// gcc cannot tell that the pointers freed here came from the malloc
// above, not from its own operator new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace rrfd::agreement {
namespace {

TEST(AdoptCommitExplore, ReplayedScheduleAllocatesAtMostEightTimes) {
  runtime::ScheduleExplorer::Options opts;
  opts.max_schedules = 100000;
  runtime::ScheduleExplorer explorer(opts);
  long violations = 0;
  const auto run_one = [&violations](runtime::Scheduler& sched) {
    AdoptCommit ac(2);
    std::vector<std::optional<AdoptCommitResult>> results(2);
    runtime::Simulation sim(2, [&](runtime::Context& ctx) {
      results[static_cast<std::size_t>(ctx.id())] = ac.run(ctx, ctx.id());
    });
    sim.run(sched);
    if (results[0] && results[1] && results[0]->commit &&
        results[1]->commit && results[0]->value != results[1]->value) {
      ++violations;
    }
  };
  // Warm-up: the first run maps the thread's fiber stacks.
  runtime::RoundRobinScheduler warm_up;
  run_one(warm_up);

  g_allocations.store(0);
  g_counting.store(true);
  const auto stats = explorer.explore(run_one);
  g_counting.store(false);
  const long allocations = g_allocations.load();

  ASSERT_TRUE(stats.exhausted);
  ASSERT_EQ(stats.schedules, 3432);
  EXPECT_EQ(violations, 0);
  EXPECT_LE(allocations, 8 * stats.schedules)
      << static_cast<double>(allocations) /
             static_cast<double>(stats.schedules)
      << " allocations per schedule";
}

}  // namespace
}  // namespace rrfd::agreement
