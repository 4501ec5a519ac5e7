// Flight recorder demo + CI determinism harness: record a seeded run to a
// JSONL trace, replay it from the trace alone, and verify the replayed
// event stream is byte-identical to the recording.
//
//   $ ./flight_recorder record <substrate> <seed> <trace.jsonl>
//   $ ./flight_recorder replay <substrate> <trace.jsonl>
//   $ ./flight_recorder demo
//
// Substrates: engine | msgpass | semisync | runtime. The runtime substrate
// records adopt-commit on the fiber runtime under a seeded RandomScheduler
// with crashes, and replays the recorded choices through a
// ScriptedScheduler. `record` writes the trace file; `replay` re-executes
// from it and exits non-zero on any divergence, so
//
//   record x 7 a.jsonl && replay x a.jsonl
//
// is a self-checking determinism test (see .github/workflows/ci.yml).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "agreement/adopt_commit.h"
#include "agreement/flood_min.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "msgpass/round_sim.h"
#include "runtime/schedulers.h"
#include "runtime/sim.h"
#include "semisync/network.h"
#include "trace/replay.h"
#include "trace/trace.h"

namespace {

using namespace rrfd;

constexpr int kN = 6;
constexpr int kF = 2;
constexpr core::Round kRounds = 4;

// --------------------------------------------------------------------------
// engine: flood-min against a seeded crash adversary
// --------------------------------------------------------------------------

std::vector<agreement::FloodMin> engine_processes() {
  std::vector<agreement::FloodMin> ps;
  for (int i = 0; i < kN; ++i) ps.emplace_back(i * 3 + 1, kF + 1);
  return ps;
}

void engine_record(std::uint64_t seed) {
  auto ps = engine_processes();
  core::CrashAdversary adversary(kN, kF, seed, /*crash_prob=*/0.5);
  core::run_rounds(ps, adversary);
}

void engine_replay(const trace::TraceReplayer& replayer) {
  auto ps = engine_processes();
  core::AdversaryPtr adversary = replayer.scripted_adversary();
  core::run_rounds(ps, *adversary);
}

// --------------------------------------------------------------------------
// msgpass: flood over enforced rounds with mid-broadcast crashes
// --------------------------------------------------------------------------

class Flood final : public msgpass::RoundProtocol {
 public:
  Flood() : mins_{11, 7, 5, 3, 2, 13} {}

  std::uint64_t emit(core::ProcId i, core::Round) override {
    return static_cast<std::uint64_t>(mins_[static_cast<std::size_t>(i)]);
  }
  void deliver(core::ProcId i, core::Round, core::ProcId,
               std::uint64_t payload) override {
    mins_[static_cast<std::size_t>(i)] = std::min(
        mins_[static_cast<std::size_t>(i)], static_cast<int>(payload));
  }
  void round_complete(core::ProcId, core::Round,
                      const core::ProcessSet&) override {}

 private:
  std::vector<int> mins_;
};

void msgpass_setup(msgpass::RoundEnforcedSim& sim) {
  sim.add_crash({.who = 1, .in_round = 2, .reaches = 3});
  sim.add_crash({.who = 4, .in_round = 3, .reaches = 1});
}

void msgpass_record(std::uint64_t seed) {
  Flood proto;
  msgpass::RoundEnforcedSim sim(kN, kF, seed);
  msgpass_setup(sim);
  sim.run(proto, kRounds);
}

void msgpass_replay(const trace::TraceReplayer& replayer) {
  Flood proto;
  msgpass::RoundEnforcedSim sim(kN, kF, /*seed=*/0);
  msgpass_setup(sim);
  sim.replay_links(replayer.link_choices());
  sim.replay_crash_dests(replayer.crash_dests());
  sim.run(proto, kRounds);
}

// --------------------------------------------------------------------------
// semisync: broadcast-once processes under phi = 2 early delivery
// --------------------------------------------------------------------------

class Beacon final : public semisync::StepProcess {
 public:
  explicit Beacon(core::ProcId id) : id_(id) {}

  std::optional<semisync::Broadcast> step(
      const std::vector<semisync::Envelope>& received) override {
    heard_ += static_cast<int>(received.size());
    ++steps_;
    if (steps_ <= 2) return semisync::Broadcast{steps_, id_ * 100 + steps_};
    return std::nullopt;
  }
  bool decided() const override { return steps_ >= 6; }
  int decision() const override { return heard_; }

 private:
  core::ProcId id_;
  int steps_ = 0;
  int heard_ = 0;
};

void semisync_run(std::uint64_t seed, const trace::TraceReplayer* replayer) {
  std::vector<Beacon> procs;
  for (core::ProcId i = 0; i < kN; ++i) procs.emplace_back(i);
  std::vector<semisync::StepProcess*> raw;
  for (auto& p : procs) raw.push_back(&p);
  semisync::StepSimOptions opts;
  opts.phi = 2;
  opts.early_delivery_prob = 0.3;
  opts.seed = seed;
  semisync::StepSim sim(raw, opts);
  sim.crash_after(3, 2);
  if (replayer != nullptr) sim.replay_steps(replayer->step_choices());
  sim.run();
}

// --------------------------------------------------------------------------
// runtime: adopt-commit on the fiber runtime with seeded crashes
// --------------------------------------------------------------------------

constexpr int kRuntimeN = 4;

void runtime_run(std::uint64_t seed, const trace::TraceReplayer* replayer) {
  agreement::AdoptCommit ac(kRuntimeN);
  runtime::Simulation sim(kRuntimeN, [&ac](runtime::Context& ctx) {
    ac.run(ctx, /*proposal=*/ctx.id() % 2);
  });
  if (replayer == nullptr) {
    runtime::RandomScheduler sched(seed, /*crash_prob=*/0.05,
                                   /*max_crashes=*/kRuntimeN - 1);
    sim.run(sched);
    return;
  }
  std::vector<runtime::Scheduler::Choice> script;
  for (const auto& [proc, crash] : replayer->scheduler_choices()) {
    script.push_back({proc, crash});
  }
  runtime::ScriptedScheduler sched(std::move(script));
  sim.run(sched);
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

void run_substrate(const std::string& substrate, std::uint64_t seed,
                   const trace::TraceReplayer* replayer) {
  if (substrate == "engine") {
    replayer ? engine_replay(*replayer) : engine_record(seed);
  } else if (substrate == "msgpass") {
    replayer ? msgpass_replay(*replayer) : msgpass_record(seed);
  } else if (substrate == "semisync") {
    semisync_run(seed, replayer);
  } else if (substrate == "runtime") {
    runtime_run(seed, replayer);
  } else {
    throw std::runtime_error("unknown substrate: " + substrate +
                             " (want engine|msgpass|semisync|runtime)");
  }
}

int run_plain(const std::string& substrate, std::uint64_t seed) {
  // Attaches no sink of its own: whatever RRFD_TRACE installed (or nothing)
  // observes the run. Exercises the env-var recording path end to end.
  run_substrate(substrate, seed, nullptr);
  std::cout << "ran " << substrate << " (seed " << seed << "); "
            << (trace::Tracer::on() ? "trace sink attached (RRFD_TRACE?)"
                                    : "no trace sink attached")
            << "\n";
  return 0;
}

int record(const std::string& substrate, std::uint64_t seed,
           const std::string& path) {
  trace::JsonlWriter writer(path);
  trace::ScopedTrace attach(&writer);
  run_substrate(substrate, seed, nullptr);
  std::cout << "recorded " << substrate << " run (seed " << seed << ") to "
            << path << "\n";
  return 0;
}

int replay(const std::string& substrate, const std::string& path) {
  trace::TraceReplayer replayer(trace::read_trace_file(path));
  trace::CaptureRecorder capture;
  {
    trace::ScopedTrace attach(&capture);
    run_substrate(substrate, 0, &replayer);
  }
  replayer.verify_matches(capture.events());
  std::cout << "replayed " << substrate << " run from " << path << ": "
            << capture.events().size()
            << " events, byte-identical to the recording\n";
  return 0;
}

int demo() {
  // Record an engine run into memory, replay it, and show the trace tail
  // a ContractViolation would carry.
  trace::CaptureRecorder capture;
  {
    trace::ScopedTrace attach(&capture);
    engine_record(/*seed=*/7);
  }
  trace::Trace recorded;
  recorded.schema = trace::kTraceSchema;
  recorded.events = capture.events();
  trace::TraceReplayer replayer(recorded);

  std::cout << "recorded " << capture.events().size() << " events; pattern:\n"
            << replayer.recorded_pattern().to_string() << "\n";

  trace::CaptureRecorder again;
  {
    trace::ScopedTrace attach(&again);
    engine_replay(replayer);
  }
  replayer.verify_matches(again.events());
  std::cout << "replay reproduced the event stream byte-for-byte.\n\n";

  trace::RingRecorder ring(8);
  for (const auto& ev : capture.events()) ring.on_event(ev);
  std::cout << "flight-recorder tail (what a ContractViolation would "
               "attach):\n"
            << ring.to_string(8) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "demo";
    if (mode == "demo") return demo();
    if (mode == "record" && argc == 5) {
      return record(argv[2], std::strtoull(argv[3], nullptr, 10), argv[4]);
    }
    if (mode == "replay" && argc == 4) return replay(argv[2], argv[3]);
    if (mode == "run" && argc == 4) {
      return run_plain(argv[2], std::strtoull(argv[3], nullptr, 10));
    }
    std::cerr << "usage: flight_recorder demo\n"
              << "       flight_recorder record <substrate> <seed> "
                 "<trace.jsonl>\n"
              << "       flight_recorder replay <substrate> <trace.jsonl>\n"
              << "       flight_recorder run <substrate> <seed>   "
                 "(sink via RRFD_TRACE)\n"
              << "substrates: engine | msgpass | semisync | runtime\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "flight_recorder: " << error.what() << "\n";
    return 1;
  }
}
