// Record/replay round-trips on every execution substrate: a run recorded
// by the flight recorder, re-executed from its own trace, must reproduce
// the identical outcome AND the identical event stream.
#include "trace/replay.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "agreement/flood_min.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "msgpass/round_sim.h"
#include "runtime/schedulers.h"
#include "runtime/sim.h"
#include "semisync/network.h"
#include "trace/trace.h"

namespace rrfd::trace {
namespace {

using core::FaultPattern;
using core::ProcId;
using core::ProcessSet;
using core::Round;

/// Serializes a captured event stream through JSONL and back, so every
/// round-trip below also exercises the wire format (byte-identical events
/// after a disk round-trip, not just in-memory equality).
Trace through_jsonl(const CaptureRecorder& capture) {
  std::ostringstream os;
  {
    JsonlWriter writer(os);
    for (const TraceEvent& ev : capture.events()) writer.on_event(ev);
  }
  std::istringstream is(os.str());
  return read_trace(is);
}

// ---------------------------------------------------------------------------
// Engine (core::run_rounds)
// ---------------------------------------------------------------------------

TEST(Replay, EngineRunRoundTripsThroughScriptedAdversary) {
  const int n = 6;
  const int f = 2;
  auto make_procs = [&] {
    std::vector<agreement::FloodMin> ps;
    for (int i = 0; i < n; ++i) ps.emplace_back(/*input=*/i, /*decide_round=*/f + 1);
    return ps;
  };

  CaptureRecorder recording;
  core::RunResult<int> recorded(n);
  {
    ScopedTrace attach(&recording);
    auto procs = make_procs();
    core::CrashAdversary adversary(n, f, /*seed=*/42, /*crash_prob=*/0.6);
    recorded = core::run_rounds(procs, adversary);
  }

  TraceReplayer replayer(through_jsonl(recording));
  EXPECT_EQ(replayer.n(), n);
  EXPECT_EQ(replayer.substrate(), Substrate::kEngine);
  ASSERT_TRUE(replayer.recorded_rounds().has_value());
  EXPECT_EQ(*replayer.recorded_rounds(), recorded.rounds);
  EXPECT_EQ(replayer.recorded_pattern(), recorded.pattern);

  CaptureRecorder replaying;
  core::RunResult<int> replayed(n);
  {
    ScopedTrace attach(&replaying);
    auto procs = make_procs();
    core::AdversaryPtr adversary = replayer.scripted_adversary();
    replayed = core::run_rounds(procs, *adversary);
  }

  replayer.verify_matches(replaying.events());
  EXPECT_EQ(replayed.pattern, recorded.pattern);
  EXPECT_EQ(replayed.rounds, recorded.rounds);
  EXPECT_EQ(replayed.all_decided, recorded.all_decided);
  EXPECT_EQ(replayed.decisions, recorded.decisions);

  // The decide events alone already pin the outcome.
  const auto decisions = replayer.recorded_decisions();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(decisions[static_cast<std::size_t>(i)].has_value());
    EXPECT_EQ(*decisions[static_cast<std::size_t>(i)],
              *recorded.decisions[static_cast<std::size_t>(i)]);
  }
}

TEST(Replay, TruncatedTracedRunReplaysByteIdenticallyOnBothPaths) {
  // Regression: max_rounds truncation x tracing x replay. A run cut off
  // by the horizon before every process decides leaves processes
  // undecided mid-protocol; the recorded trace ends at the truncation
  // point and the replay must stop exactly there too -- same RunResult,
  // byte-identical event stream.
  const int n = 8;
  const Round horizon = 3;
  auto make_procs = [&] {
    std::vector<agreement::FloodMin> ps;
    // decide_round beyond the horizon forces truncation with no decisions.
    for (int i = 0; i < n; ++i) ps.emplace_back(/*input=*/i, /*decide_round=*/horizon + 2);
    return ps;
  };

  core::EngineOptions options;
  options.max_rounds = horizon;

  CaptureRecorder recording;
  core::RunResult<int> recorded(n);
  {
    ScopedTrace attach(&recording);
    auto procs = make_procs();
    core::OmissionAdversary adversary(n, /*f=*/3, /*seed=*/7);
    recorded = core::run_rounds(procs, adversary, options);
  }
  EXPECT_EQ(recorded.rounds, horizon);
  EXPECT_FALSE(recorded.all_decided);

  TraceReplayer replayer(through_jsonl(recording));
  ASSERT_TRUE(replayer.recorded_rounds().has_value());
  EXPECT_EQ(*replayer.recorded_rounds(), horizon);

  CaptureRecorder replaying;
  core::RunResult<int> replayed(n);
  {
    ScopedTrace attach(&replaying);
    auto procs = make_procs();
    core::AdversaryPtr adversary = replayer.scripted_adversary();
    replayed = core::run_rounds(procs, *adversary, options);
  }
  replayer.verify_matches(replaying.events());
  EXPECT_EQ(replayed.pattern, recorded.pattern);
  EXPECT_EQ(replayed.rounds, recorded.rounds);
  EXPECT_EQ(replayed.all_decided, recorded.all_decided);
  EXPECT_EQ(replayed.decisions, recorded.decisions);
}

// ---------------------------------------------------------------------------
// Runtime (fiber-per-process cooperative simulation)
// ---------------------------------------------------------------------------

TEST(Replay, RuntimeScheduleRoundTripsThroughScriptedScheduler) {
  const int n = 4;
  auto body = [](runtime::Context& ctx) {
    for (int i = 0; i < 3 + ctx.id(); ++i) ctx.step();
  };

  CaptureRecorder recording;
  ProcessSet recorded_completed(n), recorded_crashed(n);
  std::vector<ProcId> recorded_schedule;
  {
    ScopedTrace attach(&recording);
    runtime::Simulation sim(n, body);
    runtime::RandomScheduler sched(/*seed=*/31, /*crash_prob=*/0.15,
                                   /*max_crashes=*/2);
    runtime::SimOutcome out = sim.run(sched);
    recorded_completed = out.completed;
    recorded_crashed = out.crashed;
    recorded_schedule = out.schedule;
  }

  TraceReplayer replayer(through_jsonl(recording));
  EXPECT_EQ(replayer.substrate(), Substrate::kRuntime);

  std::vector<runtime::Scheduler::Choice> script;
  for (const auto& [proc, crash] : replayer.scheduler_choices()) {
    script.push_back({proc, crash});
  }

  CaptureRecorder replaying;
  {
    ScopedTrace attach(&replaying);
    runtime::Simulation sim(n, body);
    runtime::ScriptedScheduler sched(script);
    runtime::SimOutcome out = sim.run(sched);
    EXPECT_EQ(out.completed, recorded_completed);
    EXPECT_EQ(out.crashed, recorded_crashed);
    EXPECT_EQ(out.schedule, recorded_schedule);
  }
  replayer.verify_matches(replaying.events());
}

// ---------------------------------------------------------------------------
// Msgpass (enforced-round message passing)
// ---------------------------------------------------------------------------

/// Deterministic flood-min over the round protocol interface.
class FloodProtocol final : public msgpass::RoundProtocol {
 public:
  explicit FloodProtocol(std::vector<int> inputs) : mins_(std::move(inputs)) {}

  std::uint64_t emit(ProcId i, Round) override {
    return static_cast<std::uint64_t>(mins_[static_cast<std::size_t>(i)]);
  }
  void deliver(ProcId i, Round, ProcId, std::uint64_t payload) override {
    mins_[static_cast<std::size_t>(i)] =
        std::min(mins_[static_cast<std::size_t>(i)], static_cast<int>(payload));
  }
  void round_complete(ProcId, Round, const ProcessSet&) override {}

  std::vector<int> mins_;
};

TEST(Replay, MsgpassDeliveryOrderRoundTripsThroughReplayLinks) {
  const int n = 5;
  const int f = 2;
  const Round rounds = 4;

  CaptureRecorder recording;
  FloodProtocol recorded_proto({9, 7, 5, 3, 1});
  FaultPattern recorded_pattern(n);
  ProcessSet recorded_crashed(n);
  {
    ScopedTrace attach(&recording);
    msgpass::RoundEnforcedSim sim(n, f, /*seed=*/1234);
    sim.add_crash({.who = 1, .in_round = 2, .reaches = 2});
    sim.add_crash({.who = 3, .in_round = 3, .reaches = 1});
    recorded_pattern = sim.run(recorded_proto, rounds);
    recorded_crashed = sim.crashed();
  }

  TraceReplayer replayer(through_jsonl(recording));
  EXPECT_EQ(replayer.substrate(), Substrate::kMsgpass);
  EXPECT_EQ(replayer.recorded_pattern(), recorded_pattern);

  CaptureRecorder replaying;
  FloodProtocol replayed_proto({9, 7, 5, 3, 1});
  {
    ScopedTrace attach(&replaying);
    // Different seed on purpose: every random draw of the recording run
    // must be reproduced from the trace, not from the RNG.
    msgpass::RoundEnforcedSim sim(n, f, /*seed=*/999);
    sim.add_crash({.who = 1, .in_round = 2, .reaches = 2});
    sim.add_crash({.who = 3, .in_round = 3, .reaches = 1});
    sim.replay_links(replayer.link_choices());
    sim.replay_crash_dests(replayer.crash_dests());
    FaultPattern replayed_pattern = sim.run(replayed_proto, rounds);
    EXPECT_EQ(replayed_pattern, recorded_pattern);
    EXPECT_EQ(sim.crashed(), recorded_crashed);
  }
  replayer.verify_matches(replaying.events());
  EXPECT_EQ(replayed_proto.mins_, recorded_proto.mins_);
}

TEST(Replay, MsgpassReplayRejectsAScriptFromADifferentRun) {
  const int n = 4;
  const Round rounds = 2;

  CaptureRecorder recording;
  {
    ScopedTrace attach(&recording);
    FloodProtocol proto({4, 3, 2, 1});
    msgpass::RoundEnforcedSim sim(n, /*f=*/1, /*seed=*/7);
    sim.add_crash({.who = 0, .in_round = 1, .reaches = 1});
    sim.run(proto, rounds);
  }
  TraceReplayer replayer(through_jsonl(recording));

  // Replaying against a fault-free sim: the scripted link stream refers to
  // deliveries that cannot occur, so the replay must fail loudly instead
  // of silently diverging.
  FloodProtocol proto({4, 3, 2, 1});
  msgpass::RoundEnforcedSim sim(n, /*f=*/1, /*seed=*/7);
  sim.replay_links(replayer.link_choices());
  sim.replay_crash_dests(replayer.crash_dests());
  EXPECT_THROW(sim.run(proto, rounds), ContractViolation);
}

// ---------------------------------------------------------------------------
// Semisync (DDS step model)
// ---------------------------------------------------------------------------

/// Broadcasts its id once, then echoes the count of distinct senders heard.
class Echo final : public semisync::StepProcess {
 public:
  explicit Echo(ProcId id, int decide_after) : id_(id), decide_after_(decide_after) {}

  std::optional<semisync::Broadcast> step(
      const std::vector<semisync::Envelope>& received) override {
    for (const auto& env : received) heard_.push_back(env.payload);
    ++steps_;
    if (steps_ == 1) return semisync::Broadcast{1, id_};
    return std::nullopt;
  }
  bool decided() const override { return steps_ >= decide_after_; }
  int decision() const override { return static_cast<int>(heard_.size()); }

  ProcId id_;
  int steps_ = 0;
  std::vector<int> heard_;

 private:
  int decide_after_;
};

TEST(Replay, SemisyncStepsRoundTripThroughReplaySteps) {
  const int n = 4;
  auto make_procs = [&] {
    std::vector<Echo> ps;
    for (ProcId i = 0; i < n; ++i) ps.emplace_back(i, /*decide_after=*/5);
    return ps;
  };
  auto raw = [](std::vector<Echo>& ps) {
    std::vector<semisync::StepProcess*> out;
    for (auto& p : ps) out.push_back(&p);
    return out;
  };

  semisync::StepSimOptions opts;
  opts.phi = 3;  // phi > 1: early-delivery coin flips matter and must replay
  opts.early_delivery_prob = 0.4;
  opts.seed = 77;

  CaptureRecorder recording;
  auto recorded_procs = make_procs();
  semisync::StepSimResult recorded(n);
  {
    ScopedTrace attach(&recording);
    auto ptrs = raw(recorded_procs);
    semisync::StepSim sim(ptrs, opts);
    sim.crash_after(2, 2);
    recorded = sim.run();
  }
  EXPECT_TRUE(recorded.all_alive_decided);

  TraceReplayer replayer(through_jsonl(recording));
  EXPECT_EQ(replayer.substrate(), Substrate::kSemisync);

  CaptureRecorder replaying;
  auto replayed_procs = make_procs();
  {
    ScopedTrace attach(&replaying);
    auto ptrs = raw(replayed_procs);
    semisync::StepSimOptions replay_opts = opts;
    replay_opts.seed = 31337;  // must be irrelevant under replay
    semisync::StepSim sim(ptrs, replay_opts);
    sim.crash_after(2, 2);
    sim.replay_steps(replayer.step_choices());
    semisync::StepSimResult replayed = sim.run();
    EXPECT_EQ(replayed.events, recorded.events);
    EXPECT_EQ(replayed.steps_taken, recorded.steps_taken);
    EXPECT_EQ(replayed.all_alive_decided, recorded.all_alive_decided);
    EXPECT_EQ(replayed.crashed, recorded.crashed);
  }
  replayer.verify_matches(replaying.events());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(replayed_procs[static_cast<std::size_t>(i)].heard_,
              recorded_procs[static_cast<std::size_t>(i)].heard_);
  }
}

// ---------------------------------------------------------------------------
// Replayer input validation
// ---------------------------------------------------------------------------

TEST(Replay, RejectsTracesWithoutExactlyOneRun) {
  Trace empty;
  empty.schema = kTraceSchema;
  EXPECT_THROW(TraceReplayer{empty}, ContractViolation);

  TraceEvent begin;
  begin.kind = EventKind::kRunBegin;
  begin.proc = 3;
  Trace doubled;
  doubled.schema = kTraceSchema;
  doubled.events = {begin, begin};
  EXPECT_THROW(TraceReplayer{doubled}, ContractViolation);
}

TEST(Replay, VerifyMatchesNamesTheFirstDivergence) {
  TraceEvent begin;
  begin.kind = EventKind::kRunBegin;
  begin.proc = 2;
  TraceEvent emit;
  emit.kind = EventKind::kEmit;
  emit.proc = 0;
  emit.round = 1;
  emit.a = 5;

  Trace trace;
  trace.schema = kTraceSchema;
  trace.events = {begin, emit};
  TraceReplayer replayer(trace);

  TraceEvent wrong = emit;
  wrong.a = 6;
  try {
    replayer.verify_matches({begin, wrong});
    FAIL() << "must throw";
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("event #1"),
              std::string::npos);
  }
  EXPECT_NO_THROW(replayer.verify_matches({begin, emit}));
}

TEST(Replay, RejectsAnnounceRoundsBeyondTheEvidence) {
  // One announce at r = 10^7 in an n = 64 run: a pattern sized from that
  // round alone would take gigabytes, so the replayer must refuse, naming
  // the bound, before it allocates any pattern storage. A repeated
  // (round, process) announcement is refused too.
  std::istringstream is(
      "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
      "{\"kind\":\"run_begin\",\"sub\":\"engine\",\"p\":64,\"r\":0,"
      "\"a\":4,\"b\":1}\n"
      "{\"kind\":\"announce\",\"sub\":\"engine\",\"p\":0,"
      "\"r\":10000000,\"a\":0,\"b\":0}\n");
  const Trace far = read_trace(is);
  Trace repeated = far;
  repeated.events.back().round = 1;
  repeated.events.push_back(repeated.events.back());
  for (const auto& [trace, reason] :
       {std::pair<Trace, std::string>{far, "announces round 10000000"},
        std::pair<Trace, std::string>{repeated, "repeats"}}) {
    const TraceReplayer replayer(trace);
    try {
      replayer.recorded_pattern();
      FAIL() << reason << ": must throw";
    } catch (const ContractViolation& violation) {
      EXPECT_NE(std::string(violation.what()).find(reason), std::string::npos)
          << violation.what();
    }
  }
}

}  // namespace
}  // namespace rrfd::trace
