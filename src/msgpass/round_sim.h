// Asynchronous message passing with enforced communication-closed rounds
// (Section 2 item 3, forward direction).
//
// "System N implements A by simulating rounds, discarding messages that
// have been missed, and buffering messages which are too early. Each
// round a process waits until it receives n - f messages of the round."
//
// The simulator is event-driven: every point-to-point copy of a broadcast
// is a separate delivery event; a seeded scheduler permutes deliveries
// arbitrarily subject to per-link FIFO. Crashes stop a process, possibly
// mid-broadcast (reaching only a subset of destinations). A process
// finalizes round r the moment its count of distinct round-r senders
// reaches n - f; the senders still missing at that moment are its D(i,r).
// The produced fault pattern therefore satisfies |D(i,r)| <= f by
// construction -- which is exactly predicate (3), i.e. the simulation
// *implements* the asynchronous RRFD system A.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_pattern.h"
#include "core/process_set.h"
#include "msgpass/link_queues.h"
#include "util/rng.h"

namespace rrfd::msgpass {

using core::FaultPattern;
using core::ProcessSet;
using core::ProcId;
using core::Round;

/// Application callback interface: what runs *on top of* the enforced
/// rounds. Payloads are 64-bit words (a value, or a ProcessSet bitmask).
class RoundProtocol {
 public:
  virtual ~RoundProtocol() = default;

  /// Payload process i broadcasts for round r (asked once per round, when
  /// i enters r).
  virtual std::uint64_t emit(ProcId i, Round r) = 0;

  /// A round-r message from `src` accepted by process i (on time).
  virtual void deliver(ProcId i, Round r, ProcId src, std::uint64_t payload) = 0;

  /// Process i finalized round r with fault set `missing` (= D(i,r)).
  virtual void round_complete(ProcId i, Round r, const ProcessSet& missing) = 0;
};

/// Crash instruction: process `who` crashes while broadcasting round
/// `in_round`, reaching only `reaches` destinations (chosen by seed).
struct CrashPlan {
  ProcId who = -1;
  Round in_round = 1;
  int reaches = 0;  ///< how many destinations its last broadcast reaches
};

class RoundEnforcedSim {
 public:
  /// n processes, at most f of which may crash; delivery order is chosen
  /// by `seed`.
  RoundEnforcedSim(int n, int f, std::uint64_t seed);

  /// Registers a crash (before run()). At most f crashes total. The
  /// plan's round is validated against the horizon at run() time: a plan
  /// whose `in_round` exceeds the `rounds` passed to run() is rejected
  /// with a ContractViolation (it could never trigger, and silently
  /// consuming the crash budget on it produced fault-free executions that
  /// looked like crash experiments).
  void add_crash(const CrashPlan& plan);

  /// Replay mode: consume delivery-order choices (absolute link indices,
  /// src * n + dst, as recorded by the flight recorder's sched events)
  /// instead of the seeded RNG. Each scripted link must be deliverable at
  /// its turn and the script must cover the whole run; violations raise
  /// ContractViolation. See trace/replay.h.
  void replay_links(std::vector<std::uint32_t> links);

  /// Replay mode companion: the exact destination set each crashing
  /// process reached (ProcessSet bitmask, as recorded by the crash
  /// events). Without this a replayed crash would re-draw its random
  /// destination subset and diverge. See trace/replay.h.
  void replay_crash_dests(
      std::vector<std::pair<ProcId, std::uint64_t>> dests);

  /// Runs every alive process through `rounds` rounds. Returns the fault
  /// pattern observed by the alive processes (crashed processes contribute
  /// empty D sets from their crash round on). Satisfies predicate (3).
  FaultPattern run(RoundProtocol& protocol, Round rounds);

  const ProcessSet& crashed() const { return crashed_; }

  /// Diagnostic snapshot used when round enforcement deadlocks: per-process
  /// current round / received_from sizes / buffered-round counts, plus the
  /// pending queue length of every non-empty link. (The flight recorder's
  /// ring buffer, when attached, appends the event tail to the same
  /// ContractViolation.)
  std::string state_report() const;

 private:
  /// White-box access for tests/msgpass/round_sim_test.cpp: the deadlock
  /// invariant is unreachable under a valid crash budget, so its
  /// diagnostic path is exercised by a test peer instead.
  friend struct RoundEnforcedSimTestPeer;

  [[noreturn]] void raise_deadlock() const;

  struct Event {
    ProcId src = -1;
    ProcId dst = -1;
    Round round = 0;
    std::uint64_t payload = 0;
  };

  struct ProcState {
    Round current = 0;                       // round being executed (0 = not started)
    std::map<Round, std::map<ProcId, std::uint64_t>> pending;  // buffered arrivals
    ProcessSet received_from;                // senders counted for `current`
    bool finished = false;

    explicit ProcState(int n) : received_from(n) {}
  };

  void broadcast(ProcId src, Round r, std::uint64_t payload);
  void enter_round(ProcId i, Round r, RoundProtocol& protocol);
  void try_finalize(ProcId i, RoundProtocol& protocol);
  void accept(ProcId i, Round r, ProcId src, std::uint64_t payload,
              RoundProtocol& protocol);

  int n_;
  int f_;
  Rng rng_;
  Round target_rounds_ = 0;
  bool replaying_ = false;
  std::vector<std::uint32_t> replay_links_;
  std::size_t replay_next_ = 0;
  std::vector<std::pair<ProcId, std::uint64_t>> replay_crash_dests_;
  std::vector<ProcState> procs_;
  std::vector<CrashPlan> crash_plans_;
  ProcessSet crashed_;  // validates n before links_ sizes by it
  LinkQueues<Event> links_;
  std::vector<std::vector<ProcessSet>> fault_sets_;  // [round][proc]
  RoundProtocol* protocol_ = nullptr;
};

}  // namespace rrfd::msgpass
