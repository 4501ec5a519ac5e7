// ABD (reference [22]): an atomic register from messages + a majority.
#include "msgpass/abd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/str.h"

namespace rrfd::msgpass {
namespace {

TEST(EventNet, FifoPerLink) {
  EventNet<int> net(2, /*seed=*/1);
  net.send(0, 1, 10);
  net.send(0, 1, 20);
  std::vector<int> got;
  while (net.deliver_one([&](core::ProcId, core::ProcId, const int& m) {
    got.push_back(m);
  })) {
  }
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.messages_sent(), 2);
  EXPECT_EQ(net.messages_delivered(), 2);
}

TEST(EventNet, CrashDropsTraffic) {
  EventNet<int> net(3, 1);
  net.send(0, 1, 5);
  net.crash(1);
  EXPECT_TRUE(net.idle());  // pending message evaporated
  net.send(0, 1, 6);
  net.send(1, 2, 7);
  EXPECT_TRUE(net.idle());  // to/from crashed: dropped
}

TEST(EventNet, BroadcastIncludesSelf) {
  EventNet<int> net(3, 1);
  net.broadcast(1, 9);
  int count = 0;
  core::ProcessSet dsts(3);
  while (net.deliver_one([&](core::ProcId src, core::ProcId dst, const int&) {
    EXPECT_EQ(src, 1);
    dsts.add(dst);
    ++count;
  })) {
  }
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(dsts.full());
}

TEST(EventNet, SeededDeliveryOrderIsPinned) {
  // Every process broadcasts; each delivery of a payload below 40 sends
  // one follow-up back to its source, and one process crashes mid-run
  // with traffic in flight. The FNV-1a digest of the (src, dst, payload)
  // sequence pins the seeded link choice, so a rewrite of the pick that
  // consumes the RNG differently fails here.
  struct Case {
    int n;
    std::uint64_t seed;
    std::uint64_t digest;
    long delivered;
  };
  const std::vector<Case> golden = {
      {3, 1, 15636886351706583346ull, 26},
      {5, 7, 16225632219627110973ull, 75},
      {8, 42, 10637505295046533672ull, 166},
  };
  for (const Case& c : golden) {
    EventNet<int> net(c.n, c.seed);
    for (core::ProcId p = 0; p < c.n; ++p) net.broadcast(p, 10 * p);
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    const auto handler = [&](core::ProcId src, core::ProcId dst,
                             const int& m) {
      mix(static_cast<std::uint64_t>(src));
      mix(static_cast<std::uint64_t>(dst));
      mix(static_cast<std::uint64_t>(m));
      if (m < 40) net.send(dst, src, m + 7);
    };
    long delivered = net.run_until_idle(handler, 3L * c.n);
    net.crash(c.n / 2);
    delivered += net.run_until_idle(handler);
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(h, c.digest) << "n=" << c.n << " seed=" << c.seed;
    EXPECT_EQ(delivered, c.delivered) << "n=" << c.n << " seed=" << c.seed;
  }
}

// ---------------------------------------------------------------------------
// ABD basics
// ---------------------------------------------------------------------------

TEST(Abd, SequentialWriteThenRead) {
  AbdRegister reg(3, /*writer=*/0, /*seed=*/1);
  const int w = reg.begin_write(42);
  reg.run_until_quiet();
  ASSERT_TRUE(reg.op(w).done());

  const int r = reg.begin_read(2);
  reg.run_until_quiet();
  ASSERT_TRUE(reg.op(r).done());
  EXPECT_EQ(reg.op(r).value, 42);
  EXPECT_EQ(reg.op(r).timestamp, 1);
  EXPECT_TRUE(check_abd_atomicity(reg.history()).empty());
}

TEST(Abd, ReadBeforeAnyWriteReturnsInitial) {
  AbdRegister reg(3, 0, 1, /*initial=*/-7);
  const int r = reg.begin_read(1);
  reg.run_until_quiet();
  ASSERT_TRUE(reg.op(r).done());
  EXPECT_EQ(reg.op(r).value, -7);
  EXPECT_EQ(reg.op(r).timestamp, 0);
}

TEST(Abd, SequentialWritesAreOrdered) {
  AbdRegister reg(5, 0, 3);
  for (int v = 1; v <= 4; ++v) {
    reg.begin_write(v * 10);
    reg.run_until_quiet();
  }
  const int r = reg.begin_read(4);
  reg.run_until_quiet();
  EXPECT_EQ(reg.op(r).value, 40);
  EXPECT_EQ(reg.op(r).timestamp, 4);
  EXPECT_TRUE(check_abd_atomicity(reg.history()).empty());
}

TEST(Abd, OneOpInFlightPerClient) {
  AbdRegister reg(3, 0, 1);
  reg.begin_write(1);
  EXPECT_THROW(reg.begin_write(2), ContractViolation);
  reg.begin_read(1);
  EXPECT_THROW(reg.begin_read(1), ContractViolation);
}

// ---------------------------------------------------------------------------
// Concurrency: random interleavings, histories must stay atomic
// ---------------------------------------------------------------------------

class AbdConcurrency
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(AbdConcurrency, RandomInterleavingsAreAtomic) {
  auto [n, seed] = GetParam();
  Rng driver(seed);
  AbdRegister reg(n, /*writer=*/0, seed * 33 + 1);

  int issued_writes = 0;
  auto busy = [&](core::ProcId client) {
    for (const AbdOpRecord& r : reg.history()) {
      if (r.client == client && !r.done()) return true;
    }
    return false;
  };
  for (int event = 0; event < 400; ++event) {
    const int action = static_cast<int>(driver.below(4));
    if (action == 0 && !busy(0) && issued_writes < 20) {
      reg.begin_write(++issued_writes * 100);
    } else if (action == 1) {
      const auto client =
          static_cast<core::ProcId>(1 + driver.below(static_cast<std::uint64_t>(n - 1)));
      if (!busy(client)) reg.begin_read(client);
    } else {
      reg.step();
    }
  }
  reg.run_until_quiet();
  const std::string diagnosis = check_abd_atomicity(reg.history());
  EXPECT_TRUE(diagnosis.empty()) << diagnosis;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AbdConcurrency,
    ::testing::Combine(::testing::Values(3, 5, 9),
                       ::testing::Values(1u, 7u, 42u, 1000u, 90210u)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& pinfo) {
      return cat("n", std::get<0>(pinfo.param), "_s", std::get<1>(pinfo.param));
    });

// ---------------------------------------------------------------------------
// Fault tolerance: the majority boundary (predicate 4's story)
// ---------------------------------------------------------------------------

TEST(Abd, ToleratesMinorityCrashes) {
  const int n = 5;  // majority = 3
  AbdRegister reg(n, 0, 11);
  reg.crash(3);
  reg.crash(4);
  const int w = reg.begin_write(5);
  reg.run_until_quiet();
  EXPECT_TRUE(reg.op(w).done());
  const int r = reg.begin_read(1);
  reg.run_until_quiet();
  ASSERT_TRUE(reg.op(r).done());
  EXPECT_EQ(reg.op(r).value, 5);
}

TEST(Abd, BlocksWithoutAMajority) {
  const int n = 4;  // majority = 3
  AbdRegister reg(n, 0, 11);
  reg.crash(2);
  reg.crash(3);
  const int w = reg.begin_write(5);
  reg.run_until_quiet();
  // Only 2 replicas can ack: the operation can never complete -- this is
  // the partition behaviour item 4's predicate (4) excludes for shared
  // memory.
  EXPECT_FALSE(reg.op(w).done());
}

TEST(Abd, CrashMidOperationLeavesHistoryAtomic) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const int n = 5;
    AbdRegister reg(n, 0, seed);
    reg.begin_write(1);
    for (int i = 0; i < 3; ++i) reg.step();  // partial propagation
    reg.crash(4);
    reg.run_until_quiet();
    const int r = reg.begin_read(1);
    reg.run_until_quiet();
    ASSERT_TRUE(reg.op(r).done());
    EXPECT_TRUE(check_abd_atomicity(reg.history()).empty());
  }
}

// ---------------------------------------------------------------------------
// Ablation: reads need their write-back phase
// ---------------------------------------------------------------------------

namespace ablation {

/// Shared scenario: a write crashes mid-propagation (the new value lands
/// on a minority of replicas), then two sequential reads by different
/// clients. Without the read write-back phase, the first read can adopt
/// the new value from the lone updated replica while the second read's
/// quorum holds only old ones -- a new/old inversion.
std::string run_scenario(std::uint64_t seed, int partial_steps,
                         bool skip_write_back) {
  const int n = 5;
  AbdRegister reg(n, /*writer=*/0, seed);
  reg.set_skip_write_back_for_testing(skip_write_back);

  reg.begin_write(0xA);
  reg.run_until_quiet();

  reg.begin_write(0xB);                           // in flight...
  for (int i = 0; i < partial_steps; ++i) reg.step();
  reg.crash(0);  // ...the writer dies; remaining stores evaporate

  const int r1 = reg.begin_read(1);
  reg.run_until_quiet();
  const int r2 = reg.begin_read(2);
  reg.run_until_quiet();
  if (!reg.op(r1).done() || !reg.op(r2).done()) return {};
  return check_abd_atomicity(reg.history());
}

}  // namespace ablation

TEST(Abd, AblationSkippingWriteBackBreaksAtomicity) {
  bool violation_found = false;
  for (std::uint64_t seed = 0; seed < 200 && !violation_found; ++seed) {
    for (int partial = 1; partial <= 4 && !violation_found; ++partial) {
      violation_found =
          !ablation::run_scenario(seed, partial, /*skip_write_back=*/true)
               .empty();
    }
  }
  EXPECT_TRUE(violation_found)
      << "no new/old inversion found -- the ablation should expose one";
}

TEST(Abd, ControlWithWriteBackSameSchedulesStayAtomic) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (int partial = 1; partial <= 4; ++partial) {
      const std::string diagnosis =
          ablation::run_scenario(seed, partial, /*skip_write_back=*/false);
      EXPECT_TRUE(diagnosis.empty())
          << "seed " << seed << " partial " << partial << ": " << diagnosis;
    }
  }
}

TEST(Abd, MessageComplexityPerOperation) {
  const int n = 5;
  AbdRegister reg(n, 0, 1);
  reg.begin_write(1);
  reg.run_until_quiet();
  const long write_msgs = reg.messages_sent();
  EXPECT_EQ(write_msgs, 2 * n);  // n stores + n acks
  reg.begin_read(1);
  reg.run_until_quiet();
  // Read: n queries + n replies + n write-backs + n acks.
  EXPECT_EQ(reg.messages_sent() - write_msgs, 4 * n);
}

}  // namespace
}  // namespace rrfd::msgpass
