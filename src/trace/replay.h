// Deterministic replay of recorded traces.
//
// A trace captured by the flight recorder contains everything that made a
// run what it was: the adversary's announcements (engine), the scheduler's
// choices (runtime), the delivery-order picks (msgpass), and the step /
// delivery-count schedule (semisync). TraceReplayer extracts those choice
// streams in the form each substrate can re-consume --
//
//   engine    -> scripted_adversary()  feeds core::run_rounds
//   runtime   -> scheduler_choices()   feeds runtime::ScriptedScheduler
//   msgpass   -> link_choices()        feeds RoundEnforcedSim::replay_links
//   semisync  -> step_choices()        feeds StepSim::replay_steps
//
// -- and verifies that the re-execution reproduced the recorded run
// byte-for-byte: verify_matches() compares the replayed event stream
// against the recorded one and throws ContractViolation at the first
// divergence. Any saved trace is therefore a deterministic regression
// test. The replay contract is documented in DESIGN.md §3.
#pragma once

#include <optional>
#include <utility>

#include "core/adversary.h"
#include "core/fault_pattern.h"
#include "trace/trace.h"

namespace rrfd::trace {

class TraceReplayer {
 public:
  /// Takes ownership of the recorded trace. The trace must contain exactly
  /// one run (one run_begin event); nested or concatenated runs must be
  /// split by the caller first.
  explicit TraceReplayer(Trace trace);

  const Trace& trace() const { return trace_; }

  /// System size, from the run_begin event.
  int n() const { return n_; }

  /// Which simulator recorded the run.
  Substrate substrate() const { return substrate_; }

  /// Rounds (engine/msgpass) or steps (runtime/semisync) the recorded run
  /// executed, from the run_end event; nullopt if the run never ended
  /// (e.g. the trace stops at a crash mid-run).
  std::optional<int> recorded_rounds() const { return recorded_rounds_; }

  /// The {D(i,r)} family assembled from the announce events. Processes
  /// with no announcement in a round (e.g. crashed ones in msgpass)
  /// contribute empty sets, matching what the substrates return.
  core::FaultPattern recorded_pattern() const;

  /// An adversary replaying the recorded announcements round by round;
  /// feeding it to core::run_rounds with identically-constructed processes
  /// reproduces the recorded RunResult exactly.
  core::AdversaryPtr scripted_adversary() const;

  /// Recorded decisions per process: (value, round committed); only
  /// decisions with an integral encodable value are recoverable.
  std::vector<std::optional<std::int64_t>> recorded_decisions() const;

  /// Runtime substrate: the scheduler's (process, crashed?) choices in
  /// order. Convertible 1:1 into runtime::Scheduler::Choice.
  std::vector<std::pair<std::int32_t, bool>> scheduler_choices() const;

  /// Msgpass substrate: the link index picked at each event-loop
  /// iteration, for RoundEnforcedSim::replay_links.
  std::vector<std::uint32_t> link_choices() const;

  /// Msgpass substrate: the destination mask each crashing process
  /// reached, for RoundEnforcedSim::replay_crash_dests.
  std::vector<std::pair<std::int32_t, std::uint64_t>> crash_dests() const;

  /// Semisync substrate: (process, messages delivered) per step, for
  /// StepSim::replay_steps.
  std::vector<std::pair<std::int32_t, std::int32_t>> step_choices() const;

  /// Asserts that a re-executed event stream matches the recorded one
  /// exactly (same events, same order; metadata ignored).
  /// Throws ContractViolation describing the first divergence.
  void verify_matches(const std::vector<TraceEvent>& replayed) const;
  void verify_matches(const Trace& replayed) const {
    verify_matches(replayed.events);
  }

 private:
  Trace trace_;
  int n_ = 0;
  Substrate substrate_ = Substrate::kEngine;
  std::optional<int> recorded_rounds_;
};

}  // namespace rrfd::trace
