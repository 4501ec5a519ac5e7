// Section 4.2's adopt-commit protocol: wait-free safety under every
// schedule (exhaustively for n = 2, randomized + crash-injected beyond).
#include "agreement/adopt_commit.h"

#include <gtest/gtest.h>

#include "runtime/explorer.h"
#include "runtime/schedulers.h"
#include "sweep/sharded_explorer.h"
#include "util/json.h"
#include "util/str.h"

namespace rrfd::agreement {
namespace {

using runtime::Context;
using runtime::RandomScheduler;
using runtime::RoundRobinScheduler;
using runtime::ScheduleExplorer;
using runtime::Simulation;

struct RunOutput {
  std::vector<std::optional<AdoptCommitResult>> results;
  core::ProcessSet crashed;

  explicit RunOutput(int n)
      : results(static_cast<std::size_t>(n)), crashed(n) {}
};

RunOutput run_adopt_commit(const std::vector<int>& proposals,
                           runtime::Scheduler& sched) {
  const int n = static_cast<int>(proposals.size());
  AdoptCommit ac(n);
  RunOutput out(n);
  Simulation sim(n, [&](Context& ctx) {
    out.results[static_cast<std::size_t>(ctx.id())] =
        ac.run(ctx, proposals[static_cast<std::size_t>(ctx.id())]);
  });
  out.crashed = sim.run(sched).crashed;
  return out;
}

/// The protocol's two guarantees plus validity.
void check_safety(const std::vector<int>& proposals, const RunOutput& out) {
  // Property 1: unanimous inputs => everyone (who finished) commits them.
  bool unanimous = true;
  for (int v : proposals) unanimous = unanimous && (v == proposals[0]);

  std::optional<int> committed;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const auto& r = out.results[i];
    if (!r) continue;
    // Validity: outcome value is someone's proposal.
    EXPECT_TRUE(std::find(proposals.begin(), proposals.end(), r->value) !=
                proposals.end())
        << "invented value " << r->value;
    if (unanimous) {
      EXPECT_TRUE(r->commit) << "process " << i << " failed to commit";
      EXPECT_EQ(r->value, proposals[0]);
    }
    if (r->commit) {
      if (committed) {
        EXPECT_EQ(*committed, r->value) << "two different commits";
      }
      committed = r->value;
    }
  }
  // Property 2: a commit forces everyone to (at least) adopt its value.
  if (committed) {
    for (const auto& r : out.results) {
      if (r) {
        EXPECT_EQ(r->value, *committed);
      }
    }
  }
}

TEST(AdoptCommit, UnanimousCommitsUnderRoundRobin) {
  RoundRobinScheduler sched;
  auto out = run_adopt_commit({7, 7, 7}, sched);
  for (const auto& r : out.results) {
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->commit);
    EXPECT_EQ(r->value, 7);
  }
}

TEST(AdoptCommit, SoloProcessCommitsItsOwnValue) {
  RoundRobinScheduler sched;
  auto out = run_adopt_commit({42}, sched);
  ASSERT_TRUE(out.results[0].has_value());
  EXPECT_TRUE(out.results[0]->commit);
  EXPECT_EQ(out.results[0]->value, 42);
}

TEST(AdoptCommit, ExhaustiveTwoProcessesDistinctValues) {
  ScheduleExplorer::Options opts;
  opts.max_schedules = 2000000;
  ScheduleExplorer explorer(opts);
  const std::vector<int> proposals{1, 2};
  long violations = 0;
  auto stats = explorer.explore([&](runtime::Scheduler& sched) {
    auto out = run_adopt_commit(proposals, sched);
    check_safety(proposals, out);
    if (::testing::Test::HasFailure()) ++violations;
  });
  EXPECT_TRUE(stats.exhausted) << "schedule space unexpectedly large";
  EXPECT_EQ(violations, 0);
  // The run count is also a regression guard on the protocol's length.
  EXPECT_GT(stats.schedules, 100);
}

TEST(AdoptCommit, ExhaustiveTwoProcessesWithOneCrash) {
  ScheduleExplorer::Options opts;
  opts.max_schedules = 2000000;
  opts.max_crashes = 1;
  ScheduleExplorer explorer(opts);
  const std::vector<int> proposals{3, 9};
  auto stats = explorer.explore([&](runtime::Scheduler& sched) {
    auto out = run_adopt_commit(proposals, sched);
    check_safety(proposals, out);
  });
  EXPECT_TRUE(stats.exhausted);
}

TEST(AdoptCommit, ExhaustiveTwoProcessesUnanimous) {
  ScheduleExplorer::Options opts;
  opts.max_schedules = 2000000;
  ScheduleExplorer explorer(opts);
  const std::vector<int> proposals{5, 5};
  auto stats = explorer.explore([&](runtime::Scheduler& sched) {
    auto out = run_adopt_commit(proposals, sched);
    check_safety(proposals, out);
    // Stronger: with unanimous inputs every completed process commits.
    for (const auto& r : out.results) {
      if (r) {
        EXPECT_TRUE(r->commit);
      }
    }
  });
  EXPECT_TRUE(stats.exhausted);
}

class AdoptCommitRandom
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(AdoptCommitRandom, SafetyUnderRandomSchedulesAndCrashes) {
  auto [n, seed] = GetParam();
  std::vector<int> proposals;
  for (int i = 0; i < n; ++i) proposals.push_back(i % 3);  // some collisions
  for (int trial = 0; trial < 40; ++trial) {
    RandomScheduler sched(seed + static_cast<std::uint64_t>(trial) * 7919,
                          /*crash_prob=*/0.02, /*max_crashes=*/n - 1);
    auto out = run_adopt_commit(proposals, sched);
    check_safety(proposals, out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdoptCommitRandom,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 16),
                       ::testing::Values(21u, 90210u)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& pinfo) {
      return cat("n", std::get<0>(pinfo.param), "_s", std::get<1>(pinfo.param));
    });

TEST(AdoptCommit, DisagreementUnderContentionIsReachable) {
  // Adopt outcomes must actually occur for some schedule (otherwise the
  // protocol would be solving consensus, which is impossible wait-free).
  bool saw_adopt = false;
  for (std::uint64_t seed = 0; seed < 50 && !saw_adopt; ++seed) {
    RandomScheduler sched(seed);
    auto out = run_adopt_commit({1, 2}, sched);
    for (const auto& r : out.results) {
      saw_adopt = saw_adopt || (r && !r->commit);
    }
  }
  EXPECT_TRUE(saw_adopt);
}

TEST(AdoptCommit, CollectProposalsSeesRoundOneWrites) {
  AdoptCommit ac(2);
  std::vector<std::optional<int>> seen;
  Simulation sim(2, [&](Context& ctx) {
    if (ctx.id() == 0) {
      ac.run(ctx, 11);
    } else {
      for (int i = 0; i < 12; ++i) ctx.step();  // let p0 finish
      seen = ac.collect_proposals(ctx);
    }
  });
  RoundRobinScheduler sched;
  sim.run(sched);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::optional<int>(11));
  EXPECT_FALSE(seen[1].has_value());
}

/// Passes every choice of the wrapped scheduler through, appending it to
/// `bytes`: 's' or 'c' (step or crash), then the process id.
class RecordingScheduler final : public runtime::Scheduler {
 public:
  RecordingScheduler(runtime::Scheduler& inner, std::string& bytes)
      : inner_(inner), bytes_(bytes) {}
  Choice pick(const core::ProcessSet& runnable, int step) override {
    const Choice c = inner_.pick(runnable, step);
    bytes_ += c.crash ? 'c' : 's';
    bytes_ += static_cast<char>('0' + c.next);
    return c;
  }

 private:
  runtime::Scheduler& inner_;
  std::string& bytes_;
};

/// One E10b schedule (n = 2). Appends its choices to `*visit`, then each
/// process's result ('-' if it has none, else 'C' or 'A' and the value)
/// and a newline; `visit` is null for sweep::explore_sharded's probe run.
void run_e10b_schedule(const std::vector<int>& proposals,
                       runtime::Scheduler& sched, std::string* visit) {
  std::string choices;
  RecordingScheduler recording(sched, choices);
  auto out = run_adopt_commit(proposals, recording);
  if (visit == nullptr) return;
  *visit += choices;
  for (const auto& r : out.results) {
    *visit += !r ? "-" : cat(r->commit ? 'C' : 'A', r->value);
  }
  *visit += '\n';
}

TEST(AdoptCommitExplore, E10bCountsAndVisitOrderArePinned) {
  // E10b's answers (3,432 crash-free schedules, 16,300 with one crash) and
  // the order the explorer visits them in, with each schedule's results,
  // digested in visit order. The serial explorer and the sharded one at
  // 1 and 4 threads must all give the pinned digest.
  struct Case {
    std::vector<int> proposals;
    int crashes;
    long schedules;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {{0, 1}, 0, 3432, 0x83e59add62e8eeecULL},
      {{0, 1}, 1, 16300, 0xeb309d08548f54d1ULL},
      {{5, 5}, 0, 3432, 0x2643d15ca7ae479dULL},
      {{5, 5}, 1, 16300, 0xb8b5aa5664f9e49dULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(cat("proposals {", c.proposals[0], ",", c.proposals[1],
                     "}, crashes<=", c.crashes));
    ScheduleExplorer::Options opts;
    opts.max_schedules = 2000000;
    opts.max_crashes = c.crashes;

    std::string serial;
    ScheduleExplorer explorer(opts);
    const auto stats = explorer.explore([&](runtime::Scheduler& sched) {
      run_e10b_schedule(c.proposals, sched, &serial);
    });
    EXPECT_TRUE(stats.exhausted);
    EXPECT_EQ(stats.schedules, c.schedules);
    EXPECT_EQ(fnv1a(serial), c.digest);

    for (int threads : {1, 4}) {
      SCOPED_TRACE(cat("sharded, threads ", threads));
      std::vector<std::string> per_shard(4);
      const auto sharded = sweep::explore_sharded(
          opts,
          [&](int shard) -> std::function<void(runtime::Scheduler&)> {
            std::string* visit =
                shard < 0 ? nullptr
                          : &per_shard.at(static_cast<std::size_t>(shard));
            return [&c, visit](runtime::Scheduler& sched) {
              run_e10b_schedule(c.proposals, sched, visit);
            };
          },
          threads);
      EXPECT_TRUE(sharded.exhausted);
      EXPECT_EQ(sharded.schedules, c.schedules);
      std::string spliced;
      for (const std::string& shard : per_shard) spliced += shard;
      EXPECT_EQ(fnv1a(spliced), c.digest);
    }
  }
}

}  // namespace
}  // namespace rrfd::agreement
