#include "runtime/sim.h"

#include <algorithm>

#include "runtime/fiber.h"
#include "trace/trace.h"
#include "util/check.h"

namespace rrfd::runtime {

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
}

void Simulation::process_step(ProcId id) {
  fibers_->yield(id);
  if ((crash_flags_ >> id) & 1) throw Crashed{};
}

void Simulation::crash(ProcId id) {
  crash_flags_ |= std::uint64_t{1} << id;
  // A process that never ran has no body code to unwind.
  if (fibers_->started(id)) fibers_->resume(id);  // step() throws Crashed
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

  // Flight recorder: every scheduler choice and crash injection becomes a
  // trace event, so a recorded schedule can be replayed verbatim through a
  // ScriptedScheduler (see trace/replay.h). Sampled once per run.
  const bool tracing = trace::Tracer::on();
  constexpr auto kSub = trace::Substrate::kRuntime;
  if (tracing) {
    trace::record(trace::EventKind::kRunBegin, kSub, count, 0,
                  static_cast<std::uint64_t>(max_steps));
  }

  ProcessSet runnable = ProcessSet::all(count);
  while (!runnable.empty()) {
    if (outcome.steps >= max_steps) {
      // Budget-forced crashes are wind-down, not scheduler choices; they
      // are deliberately not traced so a replayed schedule stays faithful.
      for (ProcId p : runnable) crash(p);
      throw StepBudgetExhausted(max_steps);
    }

    Scheduler::Choice choice = scheduler.pick(runnable, outcome.steps);
    RRFD_REQUIRE_MSG(runnable.contains(choice.next),
                     "scheduler picked a process that is not runnable");

    if (choice.crash) {
      if (tracing) {
        trace::record(trace::EventKind::kCrash, kSub, choice.next,
                      outcome.steps);
      }
      crash(choice.next);
      outcome.crashed.add(choice.next);
      runnable.remove(choice.next);
      continue;
    }

    if (tracing) {
      trace::record(trace::EventKind::kSchedChoice, kSub, choice.next,
                    outcome.steps);
    }
    fibers_->resume(choice.next);
    outcome.schedule.push_back(choice.next);
    ++outcome.steps;
    if (fibers_->finished(choice.next)) {
      outcome.completed.add(choice.next);
      runnable.remove(choice.next);
    }
  }

  if (first_error_) std::rethrow_exception(first_error_);
  if (tracing) {
    trace::record(trace::EventKind::kRunEnd, kSub, -1, outcome.steps,
                  outcome.completed.bits(), outcome.crashed.bits());
  }
  return outcome;
}

}  // namespace rrfd::runtime
