#include "runtime/sim.h"

#include <algorithm>

#include "runtime/fiber.h"
#include "trace/trace.h"
#include "util/check.h"

namespace rrfd::runtime {

namespace {

constexpr int kHost = detail::FiberSet::kHost;
constexpr auto kSub = trace::Substrate::kRuntime;

}  // namespace

/// What the host loop and the picks made on process fibers share. It lives
/// in run()'s frame: once run() has left, only crashed fibers run, and
/// they never touch it.
struct Simulation::Run {
  Run(Scheduler& s, SimOutcome& o, int n, int max)
      : scheduler(s),
        outcome(o),
        runnable(ProcessSet::all(n)),
        max_steps(max) {}

  Scheduler& scheduler;
  SimOutcome& outcome;
  ProcessSet runnable;
  int max_steps;
  bool tracing = trace::Tracer::on();  // sampled once per run
  // A pick a fiber handed back for the host to act on: a crash, a
  // process that is not runnable, or what the pick threw.
  bool handed_back = false;
  Scheduler::Choice pending{};
  std::exception_ptr pick_error;
};

int Context::n() const { return sim_->n(); }

void Context::step() { sim_->process_step(id_); }

Simulation::Simulation(int n, Body body) {
  RRFD_REQUIRE(0 < n && n <= core::kMaxProcesses);
  RRFD_REQUIRE(body != nullptr);
  bodies_.assign(static_cast<std::size_t>(n), body);
}

Simulation::Simulation(std::vector<Body> bodies) : bodies_(std::move(bodies)) {
  RRFD_REQUIRE(!bodies_.empty() &&
               static_cast<int>(bodies_.size()) <= core::kMaxProcesses);
  for (const Body& b : bodies_) RRFD_REQUIRE(b != nullptr);
}

Simulation::~Simulation() {
  if (!fibers_) return;
  for (ProcId p = 0; p < n(); ++p) {
    if (!fibers_->finished(p)) crash(p);
  }
}

void Simulation::process_main(ProcId id) noexcept {
  Context ctx(this, id);
  try {
    bodies_[static_cast<std::size_t>(id)](ctx);
  } catch (const Crashed&) {
    // Normal crash unwinding; nothing to record here (the scheduler knows).
  } catch (...) {
    if (!first_error_) first_error_ = std::current_exception();
  }
  // A body that ends uncrashed ends within a grant of the run.
  if (!crashed(id)) {
    run_->outcome.completed.add(id);
    run_->runnable.remove(id);
  }
}

// Records a grant for either picker. Its trace event is the flight
// recorder's: with the crash events run() records, a recorded schedule
// replays verbatim through a ScriptedScheduler (see trace/replay.h).
inline void Simulation::grant(ProcId id) {
  SimOutcome& outcome = run_->outcome;
  if (run_->tracing) {
    trace::record(trace::EventKind::kSchedChoice, kSub, id, outcome.steps);
  }
  outcome.schedule.push_back(id);
  ++outcome.steps;
}

// The end of a grant: the host loop's next pick is made right here, and a
// grant to another process switches straight to it. A crashed process
// never picks; it goes back to the host, which unwinds it.
void Simulation::process_step(ProcId id) {
  const int next = crashed(id) ? kHost : next_grant();
  if (next != id) fibers_->transfer(id, next);
  if (crashed(id)) throw Crashed{};
}

// The pick the host loop would make after a grant that ends with the
// process still runnable, made on that process's fiber. Returns the
// process granted, or kHost for what only the host does: winding down at
// the step budget, a crash, a pick that is not runnable (the host rejects
// it) and a pick that throws (the host rethrows it; so does one out of
// range, which contains() throws for).
int Simulation::next_grant() noexcept {
  Run& run = *run_;
  if (run.outcome.steps >= run.max_steps) return kHost;
  try {
    const Scheduler::Choice choice = fibers_->with_host_fp(
        [&] { return run.scheduler.pick(run.runnable, run.outcome.steps); });
    if (choice.crash || !run.runnable.contains(choice.next)) {
      run.pending = choice;
      run.handed_back = true;
      return kHost;
    }
    grant(choice.next);
    return choice.next;
  } catch (...) {
    run.pick_error = std::current_exception();
    run.handed_back = true;
    return kHost;
  }
}

void Simulation::crash(ProcId id) {
  crash_flags_ |= std::uint64_t{1} << id;
  // A process that never ran has no body code to unwind.
  if (fibers_->started(id)) fibers_->transfer(kHost, id);  // throws Crashed
}

SimOutcome Simulation::run(Scheduler& scheduler, int max_steps) {
  RRFD_REQUIRE_MSG(!fibers_, "Simulation is single-use");
  const int count = n();
  fibers_ = std::make_unique<detail::FiberSet>(
      count,
      [](void* sim, int id) noexcept {
        static_cast<Simulation*>(sim)->process_main(id);
      },
      this);

  SimOutcome outcome(count);
  // Room for every process to take 64 steps; a longer run grows it.
  outcome.schedule.reserve(
      static_cast<std::size_t>(std::clamp(max_steps, 0, 64 * count)));

  Run run(scheduler, outcome, count, max_steps);
  run_ = &run;
  struct Detach {
    Run*& run;
    ~Detach() { run = nullptr; }
  } detach{run_};
  if (run.tracing) {
    trace::record(trace::EventKind::kRunBegin, kSub, count, 0,
                  static_cast<std::uint64_t>(max_steps));
  }

  // The host makes the run's first pick and every pick after a process
  // finishes or is crashed; process_step makes the others. Either way each
  // pick sees the runnable set and step count this loop would show it.
  while (!run.runnable.empty()) {
    Scheduler::Choice choice;
    if (run.handed_back) {
      if (run.pick_error) std::rethrow_exception(run.pick_error);
      run.handed_back = false;
      choice = run.pending;
    } else {
      if (outcome.steps >= max_steps) {
        // Budget-forced crashes are wind-down, not scheduler choices; they
        // are deliberately not traced so a replayed schedule stays
        // faithful.
        for (ProcId p : run.runnable) crash(p);
        throw StepBudgetExhausted(max_steps);
      }
      choice = scheduler.pick(run.runnable, outcome.steps);
    }
    RRFD_REQUIRE_MSG(run.runnable.contains(choice.next),
                     "scheduler picked a process that is not runnable");

    if (choice.crash) {
      if (run.tracing) {
        trace::record(trace::EventKind::kCrash, kSub, choice.next,
                      outcome.steps);
      }
      crash(choice.next);
      outcome.crashed.add(choice.next);
      run.runnable.remove(choice.next);
      continue;
    }

    grant(choice.next);
    // Back here once a process has finished, or a pick needs the host.
    fibers_->transfer(kHost, choice.next);
  }

  if (first_error_) std::rethrow_exception(first_error_);
  if (run.tracing) {
    trace::record(trace::EventKind::kRunEnd, kSub, -1, outcome.steps,
                  outcome.completed.bits(), outcome.crashed.bits());
  }
  return outcome;
}

}  // namespace rrfd::runtime
