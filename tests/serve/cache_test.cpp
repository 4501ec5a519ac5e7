// Result-cache contract: one execution per key (lead / join / hit),
// byte-identical replays, failures never stored, and -- the PR's
// rev-poisoning fix -- a cache whose binary is stamped `unknown`
// refuses to cache anything at all.
#include "serve/cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace rrfd::serve {
namespace {

JobResult ok_result(const std::string& payload) {
  JobResult r;
  r.rows = {payload};
  r.done = "\"rows\":1";
  return r;
}

TEST(ServeCache, KeyIsCanonicalSeedRev) {
  ResultCache cache("abc1234");
  EXPECT_EQ(cache.key("sweep(n=6,k=2,trials=10)", 7),
            "sweep(n=6,k=2,trials=10)|seed=7|rev=abc1234");
  // Different seeds and different revs are different keys.
  EXPECT_NE(cache.key("sweep(n=6,k=2,trials=10)", 7),
            cache.key("sweep(n=6,k=2,trials=10)", 8));
  EXPECT_NE(cache.key("x", 0), ResultCache("def5678").key("x", 0));
}

TEST(ServeCache, LeadThenHitReplaysTheStoredResult) {
  ResultCache cache("abc1234");
  std::shared_ptr<const JobResult> hit;
  ASSERT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
            ResultCache::Outcome::kLead);
  cache.publish("k1", ok_result("\"trial\":0,\"digest\":42"));

  ASSERT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
            ResultCache::Outcome::kHit);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows, (std::vector<std::string>{"\"trial\":0,\"digest\":42"}));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.leads, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.joins, 0u);
}

TEST(ServeCache, PublishHandsBackTheStoredResult) {
  // The leader delivers from the pointer publish() returns, so it must be
  // the very object a later hit replays, not a copy of it.
  ResultCache cache("abc1234");
  std::shared_ptr<const JobResult> hit;
  ASSERT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
            ResultCache::Outcome::kLead);
  const std::shared_ptr<const JobResult> stored =
      cache.publish("k1", ok_result("\"trial\":0,\"digest\":42"));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->rows,
            (std::vector<std::string>{"\"trial\":0,\"digest\":42"}));
  ASSERT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
            ResultCache::Outcome::kHit);
  EXPECT_EQ(hit.get(), stored.get());
}

TEST(ServeCache, JoinersAreDeliveredByThePublisher) {
  ResultCache cache("abc1234");
  std::shared_ptr<const JobResult> hit;
  ASSERT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
            ResultCache::Outcome::kLead);

  std::vector<std::string> delivered;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.submit(
                  "k1",
                  [&delivered, i](const JobResult& r) {
                    delivered.push_back(std::to_string(i) + ":" + r.rows[0]);
                  },
                  &hit),
              ResultCache::Outcome::kJoined);
  }
  EXPECT_TRUE(delivered.empty());  // nothing until the leader publishes
  cache.publish("k1", ok_result("row"));
  EXPECT_EQ(delivered, (std::vector<std::string>{"0:row", "1:row", "2:row"}));
  EXPECT_EQ(cache.stats().joins, 3u);
}

TEST(ServeCache, FailuresReachWaitersButAreNotCached) {
  ResultCache cache("abc1234");
  std::shared_ptr<const JobResult> hit;
  ASSERT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
            ResultCache::Outcome::kLead);
  std::string seen;
  EXPECT_EQ(cache.submit(
                "k1",
                [&seen](const JobResult& r) {
                  seen = r.failed ? r.error_code : "ok";
                },
                &hit),
            ResultCache::Outcome::kJoined);
  JobResult error;
  error.failed = true;
  error.error_code = "exec_error";
  cache.fail("k1", error);
  EXPECT_EQ(seen, "exec_error");
  // A transient failure must not poison the key: the next submission
  // leads a fresh execution instead of replaying the error.
  EXPECT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
            ResultCache::Outcome::kLead);
  EXPECT_EQ(cache.stats().failures, 1u);
}

TEST(ServeCache, UnknownRevRefusesToCache) {
  // src/trace/git_rev.cmake stamps binaries built outside git with
  // RRFD_GIT_REV "unknown"; under that stamp two *different* builds
  // share every key, so caching would serve stale results across
  // revisions. The cache must refuse wholesale.
  ResultCache cache(kUnknownRev);
  EXPECT_FALSE(cache.caching_enabled());
  std::shared_ptr<const JobResult> hit;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.submit("k1", [](const JobResult&) {}, &hit),
              ResultCache::Outcome::kBypass);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.bypasses, 3u);
  EXPECT_EQ(stats.leads, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(ServeCache, ConcurrentSubmittersCostOneLead) {
  ResultCache cache("abc1234");
  constexpr int kThreads = 8;
  std::atomic<int> leads{0};
  std::atomic<int> delivered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &leads, &delivered] {
      std::shared_ptr<const JobResult> hit;
      const auto outcome = cache.submit(
          "hot-key", [&delivered](const JobResult&) { ++delivered; }, &hit);
      switch (outcome) {
        case ResultCache::Outcome::kLead:
          ++leads;
          cache.publish("hot-key", ok_result("row"));
          break;
        case ResultCache::Outcome::kHit:
          ++delivered;  // caller renders the hit itself
          break;
        case ResultCache::Outcome::kJoined:
        case ResultCache::Outcome::kBypass:
          break;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(leads.load(), 1);
  EXPECT_EQ(delivered.load(), kThreads - 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.leads, 1u);
  EXPECT_EQ(stats.joins + stats.hits, kThreads - 1u);
}

}  // namespace
}  // namespace rrfd::serve
