// Cooperative deterministic runtime for shared-memory protocols.
//
// The paper's shared-memory substrates (Sections 2 items 4-5, 4.2) are
// asynchronous: correctness must hold for *every* interleaving of process
// steps and every crash pattern. This runtime runs each simulated process
// as a fiber with its own stack, all on the thread that calls
// Simulation::run(): exactly one process runs at a time, and a Scheduler
// decides who steps next. Every shared-memory operation calls
// Context::step(), which is the only interleaving point -- it asks the
// scheduler for the next grant, hands control straight to the process
// granted (or keeps it, if that is the caller) and returns when the caller
// is granted its next step. So a run is one sequence of choices, fully
// determined by the schedule, and schedules can be random (seeded),
// scripted, or enumerated exhaustively (runtime/explorer.h).
//
// Crashes are injected by the scheduler: a crashed process's next step()
// throws Crashed, unwinding its stack; the protocol simply stops there,
// exactly like a crash in the asynchronous shared-memory model.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/process_set.h"
#include "core/types.h"

namespace rrfd::runtime {

using core::ProcId;
using core::ProcessSet;

/// Thrown inside a simulated process when the scheduler crashes it. Do not
/// catch it in protocol code -- the runtime handles the unwinding.
struct Crashed {};

/// Thrown by Simulation::run when the step budget is exhausted (indicating
/// a non-wait-free protocol or a livelocked schedule).
class StepBudgetExhausted : public std::runtime_error {
 public:
  explicit StepBudgetExhausted(int steps)
      : std::runtime_error("simulation exceeded step budget of " +
                           std::to_string(steps)) {}
};

class Simulation;

namespace detail {
class FiberSet;  // runtime/fiber.h
}  // namespace detail

/// Handle a process body uses to interact with the runtime.
class Context {
 public:
  /// This process's identifier.
  ProcId id() const { return id_; }

  /// Number of processes in the simulation.
  int n() const;

  /// Interleaving point: lets the scheduler pick the next step and returns
  /// when this process is granted it. Every shared-memory operation calls
  /// this exactly once before touching memory. Throws Crashed if this
  /// process was crashed.
  void step();

 private:
  friend class Simulation;
  Context(Simulation* sim, ProcId id) : sim_(sim), id_(id) {}

  Simulation* sim_;
  ProcId id_;
};

/// Chooses the next process to step. Called with the set of processes that
/// are alive and not finished; must return a member of it (or a crash
/// decision for a member). It is called on the thread that runs the
/// simulation, from run() or from inside a process's step(), under the
/// floating-point control state of run()'s caller; what it throws leaves
/// run(), never a process body.
class Scheduler {
 public:
  struct Choice {
    ProcId next;         ///< who acts
    bool crash = false;  ///< if true, `next` is crashed instead of stepping
  };

  virtual ~Scheduler() = default;
  virtual Choice pick(const ProcessSet& runnable, int step) = 0;
};

/// Outcome of a simulation run.
struct SimOutcome {
  ProcessSet completed;  ///< ran their body to completion
  ProcessSet crashed;    ///< were crashed by the scheduler
  int steps = 0;         ///< total steps granted
  std::vector<ProcId> schedule;  ///< the step sequence actually taken

  explicit SimOutcome(int n) : completed(n), crashed(n) {}
};

/// Runs n process bodies under a scheduler. Single-use: construct, run once.
/// run() and the destructor must be called on the same thread; the bodies
/// run on that thread too, one fiber each (see DESIGN.md "Fiber runtime").
class Simulation {
 public:
  using Body = std::function<void(Context&)>;

  /// Same body for every process (distinguished by Context::id()).
  Simulation(int n, Body body);

  /// One body per process.
  explicit Simulation(std::vector<Body> bodies);

  /// If run() was abandoned by an exception, crashes every process still
  /// parked in step(), so each body unwinds and its destructors run.
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Executes to completion (every process finished or crashed).
  /// Exceptions other than Crashed thrown by process bodies are captured
  /// and rethrown here after the run is wound down; an exception from the
  /// scheduler is rethrown here before any further step.
  SimOutcome run(Scheduler& scheduler, int max_steps = 1 << 20);

  int n() const { return static_cast<int>(bodies_.size()); }

 private:
  friend class Context;
  struct Run;  // sim.cpp: the state of the run in progress

  void process_main(ProcId id) noexcept;  // a fiber's whole life
  void process_step(ProcId id);           // Context::step body
  int next_grant() noexcept;              // a pick made on a process fiber
  void grant(ProcId id);  // records it: trace event, schedule, step count
  void crash(ProcId id);
  bool crashed(ProcId id) const { return (crash_flags_ >> id) & 1; }

  std::vector<Body> bodies_;
  std::uint64_t crash_flags_ = 0;  // bit p: p was crashed
  std::exception_ptr first_error_;
  std::unique_ptr<detail::FiberSet> fibers_;  // created by run()
  Run* run_ = nullptr;  // set by run(), for the picks made on fibers
};

}  // namespace rrfd::runtime
