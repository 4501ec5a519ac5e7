#include "msgpass/round_sim.h"

#include <algorithm>
#include <sstream>

#include "core/words.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/str.h"

namespace rrfd::msgpass {

namespace {
constexpr auto kSub = trace::Substrate::kMsgpass;
}  // namespace

RoundEnforcedSim::RoundEnforcedSim(int n, int f, std::uint64_t seed)
    : n_(n), f_(f), rng_(seed), crashed_(n), links_(n) {
  RRFD_REQUIRE(0 <= f && f < n);
  procs_.assign(static_cast<std::size_t>(n), ProcState(n));
}

void RoundEnforcedSim::add_crash(const CrashPlan& plan) {
  RRFD_REQUIRE(0 <= plan.who && plan.who < n_);
  RRFD_REQUIRE(plan.in_round >= 1);
  RRFD_REQUIRE(0 <= plan.reaches && plan.reaches <= n_);
  RRFD_REQUIRE_MSG(static_cast<int>(crash_plans_.size()) < f_,
                   "more crashes than the failure bound f");
  for (const CrashPlan& existing : crash_plans_) {
    RRFD_REQUIRE_MSG(existing.who != plan.who,
                     "process already has a crash plan");
  }
  crash_plans_.push_back(plan);
}

void RoundEnforcedSim::replay_links(std::vector<std::uint32_t> links) {
  RRFD_REQUIRE_MSG(target_rounds_ == 0, "replay_links must precede run()");
  replaying_ = true;
  replay_links_ = std::move(links);
  replay_next_ = 0;
}

void RoundEnforcedSim::replay_crash_dests(
    std::vector<std::pair<ProcId, std::uint64_t>> dests) {
  RRFD_REQUIRE_MSG(target_rounds_ == 0,
                   "replay_crash_dests must precede run()");
  replay_crash_dests_ = std::move(dests);
}

void RoundEnforcedSim::broadcast(ProcId src, Round r, std::uint64_t payload) {
  trace::record(trace::EventKind::kEmit, kSub, src, r, payload, 1);

  // Determine destinations: everyone, unless this is the sender's crash
  // round, in which case a random subset of size `reaches` (the essence of
  // a crash mid-broadcast).
  std::vector<ProcId> dests;
  dests.reserve(static_cast<std::size_t>(n_));
  for (ProcId d = 0; d < n_; ++d) dests.push_back(d);

  for (const CrashPlan& plan : crash_plans_) {
    if (plan.who == src && plan.in_round == r) {
      if (replaying_) {
        // The subset the crash reached is an RNG draw in recording mode;
        // replay substitutes the recorded destination mask instead.
        const auto scripted = std::find_if(
            replay_crash_dests_.begin(), replay_crash_dests_.end(),
            [src](const auto& entry) { return entry.first == src; });
        RRFD_REQUIRE_MSG(scripted != replay_crash_dests_.end(),
                         cat("replay has no crash destinations for p", src,
                             " (see replay_crash_dests)"));
        dests.clear();
        for (ProcId d = 0; d < n_; ++d) {
          if ((scripted->second >> d) & 1) dests.push_back(d);
        }
        RRFD_ENSURE_MSG(static_cast<int>(dests.size()) == plan.reaches,
                        "replayed crash destination mask disagrees with the "
                        "crash plan's reach count");
      } else {
        rng_.shuffle(dests);
        dests.resize(static_cast<std::size_t>(plan.reaches));
      }
      crashed_.add(src);
      procs_[static_cast<std::size_t>(src)].finished = true;
      std::uint64_t dest_mask = 0;
      for (ProcId d : dests) dest_mask |= std::uint64_t{1} << d;
      trace::record(trace::EventKind::kCrash, kSub, src, r, dest_mask,
                    static_cast<std::uint64_t>(plan.reaches));
      break;
    }
  }

  for (ProcId d : dests) links_.push(src, d, Event{src, d, r, payload});
}

void RoundEnforcedSim::enter_round(ProcId i, Round r, RoundProtocol& protocol) {
  ProcState& st = procs_[static_cast<std::size_t>(i)];
  st.current = r;
  st.received_from = ProcessSet::none(n_);
  trace::record(trace::EventKind::kRoundStart, kSub, i, r);

  broadcast(i, r, protocol.emit(i, r));
  if (st.finished) return;  // crashed during this broadcast

  // Drain messages that arrived early for this round.
  auto it = st.pending.find(r);
  if (it != st.pending.end()) {
    for (const auto& [src, payload] : it->second) {
      trace::record(trace::EventKind::kDeliver, kSub, i, r,
                    static_cast<std::uint64_t>(src), payload);
      protocol.deliver(i, r, src, payload);
      st.received_from.add(src);
    }
    st.pending.erase(it);
  }
  try_finalize(i, protocol);
}

void RoundEnforcedSim::try_finalize(ProcId i, RoundProtocol& protocol) {
  ProcState& st = procs_[static_cast<std::size_t>(i)];
  while (!st.finished && st.received_from.size() >= n_ - f_) {
    const Round r = st.current;
    const ProcessSet missing = st.received_from.complement();
    fault_sets_[static_cast<std::size_t>(r - 1)][static_cast<std::size_t>(i)] =
        missing;
    trace::record(trace::EventKind::kAnnounce, kSub, i, r, missing.bits());
    trace::record(trace::EventKind::kRoundEnd, kSub, i, r);
    protocol.round_complete(i, r, missing);
    if (r >= target_rounds_) {
      st.finished = true;
      return;
    }
    enter_round(i, r + 1, protocol);
    // enter_round re-invokes try_finalize; if it advanced further or
    // finished, the loop condition handles it (st.current changed).
    return;
  }
}

void RoundEnforcedSim::accept(ProcId i, Round r, ProcId src,
                              std::uint64_t payload, RoundProtocol& protocol) {
  ProcState& st = procs_[static_cast<std::size_t>(i)];
  if (st.finished) return;          // done or crashed: drop
  if (r < st.current) return;       // late: discard (communication closed)
  if (r > st.current) {             // early: buffer
    st.pending[r][src] = payload;
    return;
  }
  if (st.received_from.contains(src)) return;  // per-link FIFO dedup guard
  trace::record(trace::EventKind::kDeliver, kSub, i, r,
                static_cast<std::uint64_t>(src), payload);
  protocol.deliver(i, r, src, payload);
  st.received_from.add(src);
  try_finalize(i, protocol);
}

std::string RoundEnforcedSim::state_report() const {
  std::ostringstream os;
  os << "n=" << n_ << " f=" << f_ << " target_rounds=" << target_rounds_
     << " crashed=" << crashed_.to_string();
  for (ProcId i = 0; i < n_; ++i) {
    const ProcState& st = procs_[static_cast<std::size_t>(i)];
    os << "\n  p" << i << ": round=" << st.current
       << " received_from=" << st.received_from.size() << " ("
       << st.received_from.to_string() << ")"
       << " buffered_rounds=" << st.pending.size()
       << (st.finished ? " finished" : " waiting");
  }
  for (std::size_t l = 0; l < links_.links(); ++l) {
    if (!links_.ready(l)) continue;
    const auto src = static_cast<ProcId>(l / static_cast<std::size_t>(n_));
    const auto dst = static_cast<ProcId>(l % static_cast<std::size_t>(n_));
    os << "\n  link p" << src << "->p" << dst << ": " << links_.queued(l)
       << " pending";
  }
  os << "\n  non-empty links: " << links_.pending() << " of " << links_.links();
  return os.str();
}

void RoundEnforcedSim::raise_deadlock() const {
  RRFD_ENSURE_MSG(false, "round enforcement deadlocked (no deliverable "
                         "message but a process is still waiting)\n" +
                             state_report());
}

FaultPattern RoundEnforcedSim::run(RoundProtocol& protocol, Round rounds) {
  RRFD_REQUIRE(rounds >= 1);
  RRFD_REQUIRE_MSG(target_rounds_ == 0, "RoundEnforcedSim is single-use");
  // A plan beyond the horizon can never trigger; accepting it would
  // consume the crash budget while silently producing a fault-free run.
  for (const CrashPlan& plan : crash_plans_) {
    RRFD_REQUIRE_MSG(
        plan.in_round <= rounds,
        cat("crash plan for p", plan.who, " targets round ", plan.in_round,
            " but the run stops after round ", rounds,
            " (past-horizon plans are rejected; see add_crash)"));
  }
  target_rounds_ = rounds;
  fault_sets_.assign(
      static_cast<std::size_t>(rounds),
      std::vector<ProcessSet>(static_cast<std::size_t>(n_),
                              ProcessSet::none(n_)));

  trace::record(trace::EventKind::kRunBegin, kSub, n_, 0,
                static_cast<std::uint64_t>(f_),
                static_cast<std::uint64_t>(rounds));

  for (ProcId i = 0; i < n_; ++i) enter_round(i, 1, protocol);

  // Event loop: deliver pending messages in random order (per-link FIFO)
  // until every alive process has finished its rounds; LinkQueues picks
  // the k-th ready link from its per-source masks.
  for (;;) {
    std::uint64_t finished = 0;
    for (ProcId i = 0; i < n_; ++i) {
      if (procs_[static_cast<std::size_t>(i)].finished) {
        finished |= std::uint64_t{1} << i;
      }
    }
    if (finished == core::full_mask(n_)) break;

    // Destinations that finished evaporate their queued messages.
    const int ready_count = links_.drop_to(finished);
    if (ready_count == 0) {
      // No deliverable messages but some process is still waiting: can only
      // happen if more than f processes crashed, which add_crash prevents.
      raise_deadlock();
    }

    std::size_t link;
    if (replaying_) {
      RRFD_REQUIRE_MSG(replay_next_ < replay_links_.size(),
                       "replay script exhausted while deliveries remain");
      link = replay_links_[replay_next_++];
      RRFD_ENSURE_MSG(links_.ready(link),
                      cat("replayed link choice ", link,
                          " is not deliverable at this point\n",
                          state_report()));
    } else {
      link = links_.nth(static_cast<int>(
          rng_.below(static_cast<std::uint64_t>(ready_count))));
    }
    const Event ev = links_.pop(link);
    trace::record(trace::EventKind::kSchedChoice, kSub, ev.dst, ev.round,
                  static_cast<std::uint64_t>(link));
    accept(ev.dst, ev.round, ev.src, ev.payload, protocol);
  }

  FaultPattern pattern(n_);
  for (const auto& round : fault_sets_) pattern.append(round);
  trace::record(trace::EventKind::kRunEnd, kSub, -1, rounds,
                crashed_.bits());
  return pattern;
}

}  // namespace rrfd::msgpass
