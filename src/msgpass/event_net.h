// A typed, event-driven asynchronous point-to-point network.
//
// Complements the round-enforced simulator (round_sim.h): protocols that
// are *not* round-based -- quorum protocols like ABD -- exchange typed
// messages over per-link FIFO channels, with a seeded scheduler choosing
// delivery order and crashes cutting a process out of the network. This
// is the raw asynchronous message-passing system N of Section 2 items
// 3-4, before any round structure is imposed on it.
#pragma once

#include <functional>

#include "core/process_set.h"
#include "core/types.h"
#include "msgpass/link_queues.h"
#include "util/check.h"
#include "util/rng.h"

namespace rrfd::msgpass {

template <typename M>
class EventNet {
 public:
  /// Delivery callback: (src, dst, message).
  using Handler = std::function<void(core::ProcId, core::ProcId, const M&)>;

  EventNet(int n, std::uint64_t seed)
      : n_(n), rng_(seed), crashed_(n), links_(n) {}

  int n() const { return n_; }

  /// Enqueues a message. Sends from or to a crashed process are dropped
  /// (a crashed process neither sends nor receives).
  void send(core::ProcId src, core::ProcId dst, M m) {
    RRFD_REQUIRE(0 <= src && src < n_ && 0 <= dst && dst < n_);
    if (crashed_.contains(src) || crashed_.contains(dst)) return;
    links_.push(src, dst, std::move(m));
    ++sent_;
  }

  /// Sends to every process (including the sender).
  void broadcast(core::ProcId src, const M& m) {
    for (core::ProcId dst = 0; dst < n_; ++dst) send(src, dst, m);
  }

  /// Crashes a process: pending traffic to and from it evaporates.
  void crash(core::ProcId p) {
    RRFD_REQUIRE(0 <= p && p < n_);
    crashed_.add(p);
    links_.drop_from(p);
    links_.drop_to(std::uint64_t{1} << p);
  }

  const core::ProcessSet& crashed() const { return crashed_; }

  bool idle() const { return links_.pending() == 0; }

  long messages_sent() const { return sent_; }
  long messages_delivered() const { return delivered_; }

  /// Delivers one pending message chosen uniformly at random among
  /// non-empty links (respecting per-link FIFO). Returns false if idle.
  bool deliver_one(const Handler& handler) {
    const int ready = links_.pending();
    if (ready == 0) return false;
    const std::size_t l = links_.nth(
        static_cast<int>(rng_.below(static_cast<std::uint64_t>(ready))));
    const auto src = static_cast<core::ProcId>(l / static_cast<std::size_t>(n_));
    const auto dst = static_cast<core::ProcId>(l % static_cast<std::size_t>(n_));
    M m = links_.pop(l);
    ++delivered_;
    handler(src, dst, m);
    return true;
  }

  /// Keeps delivering until idle or the budget runs out; returns the
  /// number of deliveries performed.
  long run_until_idle(const Handler& handler, long max_deliveries = 1 << 20) {
    long count = 0;
    while (count < max_deliveries && deliver_one(handler)) ++count;
    return count;
  }

 private:
  int n_;
  Rng rng_;
  core::ProcessSet crashed_;  // validates n before links_ sizes by it
  LinkQueues<M> links_;
  long sent_ = 0;
  long delivered_ = 0;
};

}  // namespace rrfd::msgpass
