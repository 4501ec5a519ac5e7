#include "serve/cache.h"

#include <utility>

#include "util/check.h"
#include "util/str.h"

namespace rrfd::serve {

ResultCache::ResultCache(std::string git_rev) : git_rev_(std::move(git_rev)) {
  RRFD_REQUIRE_MSG(!git_rev_.empty(), "cache rev must be non-empty");
}

std::string ResultCache::key(const std::string& canonical,
                             std::uint64_t seed) const {
  return cat(canonical, "|seed=", seed, "|rev=", git_rev_);
}

ResultCache::Outcome ResultCache::submit(const std::string& key,
                                         Delivery delivery,
                                         std::shared_ptr<const JobResult>* hit) {
  RRFD_REQUIRE(hit != nullptr);
  MutexLock lock(mu_);
  if (!caching_enabled()) {
    // Refusal path: results stamped `unknown` would collide across
    // builds, so nothing is stored and nothing is deduped.
    ++stats_.bypasses;
    return Outcome::kBypass;
  }
  auto [it, inserted] = entries_.try_emplace(key);
  if (inserted) {
    ++stats_.leads;
    return Outcome::kLead;
  }
  if (!it->second.done) {
    ++stats_.joins;
    it->second.waiters.push_back(std::move(delivery));
    return Outcome::kJoined;
  }
  ++stats_.hits;
  *hit = it->second.result;
  return Outcome::kHit;
}

std::shared_ptr<const JobResult> ResultCache::publish(const std::string& key,
                                                     JobResult result) {
  RRFD_REQUIRE_MSG(!result.failed, "publish() is for successes; use fail()");
  auto stored = std::make_shared<const JobResult>(std::move(result));
  std::vector<Delivery> waiters;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    RRFD_REQUIRE_MSG(it != entries_.end() && !it->second.done,
                     "publish() without a leading submit(): " + key);
    it->second.done = true;
    it->second.result = stored;
    waiters.swap(it->second.waiters);
  }
  for (const Delivery& waiter : waiters) waiter(*stored);
  return stored;
}

void ResultCache::fail(const std::string& key, JobResult error) {
  RRFD_REQUIRE_MSG(error.failed, "fail() requires a failed result");
  std::vector<Delivery> waiters;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    RRFD_REQUIRE_MSG(it != entries_.end() && !it->second.done,
                     "fail() without a leading submit(): " + key);
    waiters.swap(it->second.waiters);
    entries_.erase(it);
    ++stats_.failures;
  }
  for (const Delivery& waiter : waiters) waiter(error);
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace rrfd::serve
