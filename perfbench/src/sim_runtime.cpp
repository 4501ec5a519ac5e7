// sim-runtime: a closed loop, 1 client, serial, running a fixed cycle of
// protocol simulations on the shared-memory and message-passing
// substrates:
//
//   * adopt-commit (agreement::AdoptCommit) on runtime::Simulation under
//     seeded RandomSchedulers with crashes, at n = 4 and n = 8;
//   * the Theorem 4.3 crash simulation (xform::run_crash_from_async,
//     n = 6, k = 1, 5 simulated rounds) with one crash allowed;
//   * the crash-free E10b exploration at n = 2 through
//     sweep::explore_sharded (pinned to one thread);
//   * a smaller share of msgpass::RoundEnforcedSim and
//     semisync::StepSim runs.
//
// Each op runs on one CPU with every thread it starts: the runtime runs
// one simulated process at a time, so on one CPU its baton hand-offs are
// context switches, while spread over CPUs they are cross-CPU wake-ups,
// whose cost on a shared virtual machine depends on the host more than
// on the code. The ops of a cycle take the CPUs in turn (see CpuSet).
//
// The thread-per-process runtime dominates the time; msgpass and
// semisync are measured nowhere else.
#include <algorithm>
#include <optional>

#include "agreement/adopt_commit.h"
#include "agreement/flood_min.h"
#include "core/predicates.h"
#include "harness.h"
#include "msgpass/round_sim.h"
#include "runtime/explorer.h"
#include "runtime/schedulers.h"
#include "runtime/sim.h"
#include "semisync/consensus.h"
#include "semisync/network.h"
#include "sweep/sharded_explorer.h"
#include "util/rng.h"
#include "util/str.h"
#include "xform/crash_from_async.h"
#include "xform/pattern_checks.h"

namespace perfbench {

namespace {

using namespace rrfd;

constexpr int kAdoptCommitN4 = 40;
constexpr int kAdoptCommitN8 = 30;
constexpr int kMsgpassRuns = 16;
constexpr int kSemisyncRuns = 16;
constexpr int kEmptyRunsPerCycle = 8;  // traced pass only
constexpr int kCrashSimN = 6;
constexpr int kCrashSimK = 1;
constexpr int kCrashSimRounds = 5;  // k * rounds < n
constexpr int kMsgpassRounds = 4;
constexpr int kExploreN = 2;
/// Crash-free schedules of adopt-commit at n = 2 (E10b): every
/// interleaving of the two processes' 7 scheduler grants, C(14, 7).
constexpr long kExploreSchedules = 3432;

enum class Kind { kAdoptCommit, kCrashSim, kExplore, kMsgpass, kSemisync };

struct Op {
  Kind kind = Kind::kAdoptCommit;
  int n = 0;
  std::uint64_t seed = 0;
  std::vector<int> inputs;
  /// The CPU slot (see CpuSet) the op and its threads run on. Ops of one
  /// kind get consecutive slots, so each kind is spread evenly.
  std::size_t slot = 0;
};


/// Scheduler wrapper counting the steps it grants.
class CountingScheduler final : public runtime::Scheduler {
 public:
  explicit CountingScheduler(runtime::Scheduler& inner) : inner_(inner) {}
  Choice pick(const core::ProcessSet& runnable, int step) override {
    ++picks;
    return inner_.pick(runnable, step);
  }
  long picks = 0;

 private:
  runtime::Scheduler& inner_;
};

/// Flood-min over the enforced rounds: the protocol a RoundEnforcedSim
/// run carries. Its decisions are checked for validity.
class MinFlood final : public msgpass::RoundProtocol {
 public:
  explicit MinFlood(const std::vector<int>& inputs)
      : best_(inputs.begin(), inputs.end()) {}
  std::uint64_t emit(core::ProcId i, core::Round) override {
    return static_cast<std::uint64_t>(best_[static_cast<std::size_t>(i)]);
  }
  void deliver(core::ProcId i, core::Round, core::ProcId,
               std::uint64_t payload) override {
    auto& b = best_[static_cast<std::size_t>(i)];
    b = std::min(b, static_cast<int>(payload));
  }
  void round_complete(core::ProcId, core::Round,
                      const core::ProcessSet&) override {}
  const std::vector<int>& values() const { return best_; }

 private:
  std::vector<int> best_;
};

/// Adopt-commit agreement and validity over one run's results.
bool adopt_commit_ok(
    const std::vector<std::optional<agreement::AdoptCommitResult>>& results,
    const std::vector<int>& proposals) {
  std::optional<int> committed;
  for (const auto& r : results) {
    if (!r) continue;
    if (std::find(proposals.begin(), proposals.end(), r->value) ==
        proposals.end()) {
      return false;
    }
    if (r->commit) {
      if (committed && *committed != r->value) return false;
      committed = r->value;
    }
  }
  if (!committed) return true;
  return std::all_of(results.begin(), results.end(),
                     [&](const auto& r) { return !r || r->value == *committed; });
}

class SimRuntime final : public Workload {
 public:
  void setup(std::uint64_t seed) override;
  void run_cycle(Pass& pass) override;
  void layer_metrics(const Pass& pass, const std::vector<Span>& spans,
                     Metrics& out) const override;
  // 104 ops a cycle; p50 sits inside the n = 4 adopt-commit block and
  // p90 inside the n = 8 one.
  double tail_q() const override { return 0.9; }

 private:
  std::string run_op(const Op& op, Pass& pass, std::int64_t id,
                     double* seconds) const;
  std::string adopt_commit(const Op& op, Pass& pass, std::int64_t id,
                           double* seconds) const;
  std::string crash_sim(const Op& op, Pass& pass, std::int64_t id,
                        double* seconds) const;
  std::string explore(Pass& pass, std::int64_t id, double* seconds) const;
  std::string msgpass_run(const Op& op, Pass& pass, std::int64_t id,
                          double* seconds) const;
  std::string semisync_run(const Op& op, Pass& pass, std::int64_t id,
                           double* seconds) const;

  std::vector<Op> cycle_;
};

void SimRuntime::setup(std::uint64_t seed) {
  const CpuSet cpus;
  cycle_.clear();
  Rng rng(seed ^ 0x51a5eed051a5eedULL);
  const auto add = [&](Kind kind, int n, int count) {
    for (int i = 0; i < count; ++i) {
      Op op;
      op.kind = kind;
      op.n = n;
      op.seed = rng();
      op.slot = cycle_.size();
      for (int p = 0; p < n; ++p) {
        op.inputs.push_back(static_cast<int>(rng.range(0, 3)));
      }
      cycle_.push_back(std::move(op));
    }
  };
  add(Kind::kAdoptCommit, 4, kAdoptCommitN4);
  add(Kind::kAdoptCommit, 8, kAdoptCommitN8);
  add(Kind::kCrashSim, kCrashSimN, 1);
  add(Kind::kExplore, kExploreN, 1);
  add(Kind::kMsgpass, 5, kMsgpassRuns / 2);
  add(Kind::kMsgpass, 9, kMsgpassRuns / 2);
  add(Kind::kSemisync, 4, kSemisyncRuns / 2);
  add(Kind::kSemisync, 8, kSemisyncRuns / 2);
  rng.shuffle(cycle_);

  // Warm-up: one untimed op of every kind but the exploration, which
  // would triple set-up time for no change in what is timed.
  Pass warm_up;
  for (Kind kind : {Kind::kAdoptCommit, Kind::kCrashSim, Kind::kMsgpass,
                    Kind::kSemisync}) {
    const auto it = std::find_if(cycle_.begin(), cycle_.end(),
                                 [kind](const Op& op) { return op.kind == kind; });
    double seconds = 0;
    cpus.pin(it->slot);
    const std::string error = run_op(*it, warm_up, -1, &seconds);
    RRFD_REQUIRE_MSG(error.empty(), "sim-runtime warm-up: " + error);
  }
}

std::string SimRuntime::run_op(const Op& op, Pass& pass, std::int64_t id,
                               double* seconds) const {
  TimedSection timed(pass);
  switch (op.kind) {
    case Kind::kAdoptCommit: return adopt_commit(op, pass, id, seconds);
    case Kind::kCrashSim: return crash_sim(op, pass, id, seconds);
    case Kind::kExplore: return explore(pass, id, seconds);
    case Kind::kMsgpass: return msgpass_run(op, pass, id, seconds);
    case Kind::kSemisync: return semisync_run(op, pass, id, seconds);
  }
  return "unknown op kind";
}

std::string SimRuntime::adopt_commit(const Op& op, Pass& pass, std::int64_t id,
                                     double* seconds) const {
  const int n = op.n;
  agreement::AdoptCommit ac(n);
  std::vector<std::optional<agreement::AdoptCommitResult>> results(
      static_cast<std::size_t>(n));
  runtime::Simulation sim(n, [&](runtime::Context& ctx) {
    const auto i = static_cast<std::size_t>(ctx.id());
    results[i] = ac.run(ctx, op.inputs[i]);
  });
  // Rare crashes: most runs take every step, so the latency quantiles
  // do not hinge on where a few crashes fell.
  runtime::RandomScheduler sched(op.seed, /*crash_prob=*/0.003,
                                 /*max_crashes=*/n - 1);
  std::optional<runtime::SimOutcome> outcome;
  {
    ScopedSpan span(pass.spans, "runtime.sim_run", id);
    outcome.emplace(sim.run(sched));
    *seconds = span.stop();
  }
  pass.count("runtime.sim.runs", 1);
  pass.count("runtime.sim.steps", outcome->steps);
  pass.count("runtime.sim.crashes", outcome->crashed.size());
  if (!adopt_commit_ok(results, op.inputs)) {
    return cat("adopt-commit n=", n, " seed ", op.seed,
               ": agreement or validity violated");
  }
  return "";
}

std::string SimRuntime::crash_sim(const Op& op, Pass& pass, std::int64_t id,
                                  double* seconds) const {
  std::vector<agreement::FloodMin> procs;
  for (int i = 0; i < op.n; ++i) procs.emplace_back(op.inputs[static_cast<std::size_t>(i)], kCrashSimRounds);
  runtime::RandomScheduler random(op.seed, /*crash_prob=*/0.002,
                                  /*max_crashes=*/kCrashSimK);
  CountingScheduler sched(random);
  std::optional<xform::CrashFromAsyncResult<int>> result;
  {
    ScopedSpan span(pass.spans, "xform.run_crash_from_async", id);
    result.emplace(
        xform::run_crash_from_async(procs, kCrashSimK, kCrashSimRounds, sched));
    *seconds = span.stop();
  }
  pass.count("xform.crash_sim.rounds", kCrashSimRounds);
  pass.count("xform.crash_sim.steps", sched.picks);
  if (!xform::crash_pattern_holds_among(result->simulated,
                                        result->crashed.complement(),
                                        kCrashSimK * kCrashSimRounds)) {
    return cat("crash simulation seed ", op.seed,
               ": simulated pattern is not a crash pattern");
  }
  return "";
}

std::string SimRuntime::explore(Pass& pass, std::int64_t id,
                                double* seconds) const {
  runtime::ScheduleExplorer::Options options;
  options.max_schedules = 5'000'000;
  options.max_crashes = 0;
  // One slot per shard, one shard per root alternative (the n = 2 root
  // has two); the factory sees shard -1 for the probe run.
  std::vector<long> violations(kExploreN, 0);
  std::vector<long> steps(kExploreN + 1, 0);
  runtime::ScheduleExplorer::Stats stats;
  {
    ScopedSpan span(pass.spans, "sweep.explore_sharded", id);
    const std::int64_t parent = span.id();
    SpanLog* log = pass.spans;
    stats = sweep::explore_sharded(
        options,
        [&](int shard) {
          RRFD_REQUIRE(shard < kExploreN);
          return [&, shard](runtime::Scheduler& sched) {
            agreement::AdoptCommit ac(kExploreN);
            std::vector<std::optional<agreement::AdoptCommitResult>> results(
                kExploreN);
            runtime::Simulation sim(kExploreN, [&](runtime::Context& ctx) {
              results[static_cast<std::size_t>(ctx.id())] =
                  ac.run(ctx, ctx.id());  // distinct proposals 0, 1
            });
            ScopedSpan run(log, "runtime.sim_run", id, parent);
            const runtime::SimOutcome outcome = sim.run(sched);
            run.stop();
            steps[static_cast<std::size_t>(shard + 1)] += outcome.steps;
            if (shard >= 0 && !adopt_commit_ok(results, {0, 1})) {
              ++violations[static_cast<std::size_t>(shard)];
            }
          };
        },
        /*threads=*/1);
    *seconds = span.stop();
  }
  long bad = 0;
  for (long v : violations) bad += v;
  long total_steps = 0;
  for (long s : steps) total_steps += s;
  pass.count("runtime.explore.schedules", stats.schedules);
  pass.count("runtime.sim.runs", stats.schedules + 1);
  pass.count("runtime.sim.steps", total_steps);
  if (bad != 0) return cat("exploration found ", bad, " violating schedules");
  if (!stats.exhausted || stats.schedules != kExploreSchedules) {
    return cat("exploration visited ", stats.schedules, " schedules, expected ",
               kExploreSchedules);
  }
  return "";
}

std::string SimRuntime::msgpass_run(const Op& op, Pass& pass, std::int64_t id,
                                    double* seconds) const {
  const int n = op.n;
  const int f = (n - 1) / 2;
  msgpass::RoundEnforcedSim sim(n, f, op.seed);
  msgpass::CrashPlan crash;
  crash.who = static_cast<core::ProcId>(op.seed % static_cast<std::uint64_t>(n));
  crash.in_round = 1 + static_cast<core::Round>((op.seed >> 8) % kMsgpassRounds);
  crash.reaches = static_cast<int>((op.seed >> 16) % static_cast<std::uint64_t>(n));
  sim.add_crash(crash);
  MinFlood protocol(op.inputs);
  std::optional<core::FaultPattern> pattern;
  {
    ScopedSpan span(pass.spans, "msgpass.round_sim_run", id);
    pattern.emplace(sim.run(protocol, kMsgpassRounds));
    *seconds = span.stop();
  }
  pass.count("msgpass.rounds", pattern->rounds());
  const int lowest = *std::min_element(op.inputs.begin(), op.inputs.end());
  for (int v : protocol.values()) {
    if (v < lowest) return cat("msgpass seed ", op.seed, ": invented a value");
  }
  if (pattern->rounds() != kMsgpassRounds ||
      !core::async_message_passing(f)->holds(*pattern)) {
    return cat("msgpass seed ", op.seed,
               ": pattern does not satisfy async_message_passing(", f, ")");
  }
  return "";
}

std::string SimRuntime::semisync_run(const Op& op, Pass& pass, std::int64_t id,
                                     double* seconds) const {
  const int n = op.n;
  std::vector<semisync::TwoStepConsensus> procs;
  for (int i = 0; i < n; ++i) {
    procs.emplace_back(n, i, op.inputs[static_cast<std::size_t>(i)]);
  }
  std::vector<semisync::StepProcess*> raw;
  for (auto& p : procs) raw.push_back(&p);
  semisync::StepSimOptions options;
  options.phi = 1;
  options.seed = op.seed;
  semisync::StepSim sim(raw, options);
  sim.crash_after(static_cast<core::ProcId>(op.seed % static_cast<std::uint64_t>(n)),
                  static_cast<int>((op.seed >> 8) % 3));
  std::optional<semisync::StepSimResult> result;
  {
    ScopedSpan span(pass.spans, "semisync.step_sim_run", id);
    result.emplace(sim.run());
    *seconds = span.stop();
  }
  pass.count("semisync.events", result->events);
  std::optional<int> decided;
  for (int i = 0; i < n; ++i) {
    if (result->crashed.contains(i)) continue;
    const auto& p = procs[static_cast<std::size_t>(i)];
    if (!p.decided()) return cat("semisync seed ", op.seed, ": p", i, " undecided");
    if (decided && *decided != p.decision()) {
      return cat("semisync seed ", op.seed, ": disagreement");
    }
    decided = p.decision();
  }
  if (!result->all_alive_decided || !decided ||
      std::find(op.inputs.begin(), op.inputs.end(), *decided) ==
          op.inputs.end()) {
    return cat("semisync seed ", op.seed, ": no valid decision");
  }
  return "";
}

void SimRuntime::run_cycle(Pass& pass) {
  const CpuSet cpus;
  for (const Op& op : cycle_) {
    double seconds = 0;
    cpus.pin(op.slot);
    const std::string error = run_op(op, pass, pass.attempted, &seconds);
    pass.op_done(seconds, error.empty(), error);
  }
  if (!pass.traced()) return;
  cpus.pin(0);
  // Thread spawn and join cost of the runtime, apart from any protocol.
  for (int i = 0; i < kEmptyRunsPerCycle; ++i) {
    runtime::Simulation sim(4, [](runtime::Context&) {});
    runtime::RoundRobinScheduler sched;
    ScopedSpan span(pass.spans, "runtime.sim_run_empty", -1);
    (void)sim.run(sched);
  }
}

void SimRuntime::layer_metrics(const Pass& pass, const std::vector<Span>& spans,
                               Metrics& out) const {
  const auto t = totals_by_name(spans);
  const double cycles = pass.cycles;
  const auto c = [&pass](const char* name) {
    return static_cast<double>(counter(pass, name));
  };
  put_ratio(out, "runtime.sim.ns_per_step",
            total_s(t, "runtime.sim_run") * 1e9 / cycles, c("runtime.sim.steps"));
  put_count(out, "runtime.sim.steps", c("runtime.sim.steps"));
  const auto empty = t.find("runtime.sim_run_empty");
  if (empty != t.end()) {
    put_ratio(out, "runtime.sim.empty_run_us", empty->second.total_s * 1e6,
              static_cast<double>(empty->second.calls));
  }
  put_count(out, "runtime.explore.schedules", c("runtime.explore.schedules"));
  put_ratio(out, "runtime.explore.schedules_per_s",
            c("runtime.explore.schedules") * cycles,
            total_s(t, "sweep.explore_sharded"));
  put_ratio(out, "xform.crash_sim.ms_per_sim_round",
            total_s(t, "xform.run_crash_from_async") * 1e3 / cycles,
            c("xform.crash_sim.rounds"));
  put_ratio(out, "msgpass.round_sim.us_per_round",
            total_s(t, "msgpass.round_sim_run") * 1e6 / cycles,
            c("msgpass.rounds"));
  put_ratio(out, "semisync.step_sim.ns_per_event",
            total_s(t, "semisync.step_sim_run") * 1e9 / cycles,
            c("semisync.events"));
  put_count(out, "semisync.step_sim.events", c("semisync.events"));
}

}  // namespace

std::unique_ptr<Workload> make_sim_runtime() {
  return std::make_unique<SimRuntime>();
}

}  // namespace perfbench
