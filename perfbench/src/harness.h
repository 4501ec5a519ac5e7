// Shared machinery of the rrfd benchmark: the clock, process CPU and
// memory readings, order statistics, the in-memory span log of traced
// runs, and the cycle loop every workload runs under.
//
// A workload is a fixed *cycle* of operations generated from the seed.
// A pass repeats the cycle until the measuring time is used up, so the
// op count may differ between runs, but every work counter is kept per
// cycle and must come out identical in every cycle of every pass at the
// same seed: that is what lets a later change tell less work from faster
// work.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/submodel.h"

namespace perfbench {

/// Monotonic nanoseconds. The benchmark reads the clock; the library
/// under test never does (rrfd_lint's no-wall-clock rule).
std::int64_t now_ns();
double process_cpu_s();  ///< user + system time of every thread so far
double peak_rss_mb();    ///< peak resident set of this process

/// Nearest-rank quantile of `v` (0 < q <= 1); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// The CPUs the calling thread may run on when this is made, and pinning
/// of the calling thread to one of them; the destructor restores the
/// thread's set. On a shared virtual machine the CPUs do not run at one
/// speed: their host cores are shared with other guests, and which are
/// slow changes from second to second. A serial client left where the
/// scheduler put it measures the one CPU it landed on; pinning op k of a
/// cycle to CPU k mod size() spreads every cycle evenly over all of them.
/// Threads the pinned thread starts inherit its set.
class CpuSet {
 public:
  CpuSet();
  ~CpuSet();
  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;

  /// Pins the calling thread to CPU k mod size().
  void pin(std::size_t k) const;
  /// Gives the calling thread every CPU of the set again.
  void release() const;

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

/// Work counters of one cycle, by name. Sums of exact integers.
using Counters = std::map<std::string, std::int64_t>;

/// One recorded call into a layer: name ("<layer>.<call>"), interval,
/// the span that caused it, and the op it belongs to. An opaque span
/// times a call whose inside the benchmark cannot see and whose work
/// other spans already attribute; it is left out of self times.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t op = -1;
  bool opaque = false;
};

/// Spans of one traced pass, kept in memory until the run ends.
/// Thread-safe: sweep workers record their children concurrently.
class SpanLog {
 public:
  std::int64_t open(const char* name, std::int64_t op, std::int64_t parent,
                    bool opaque);
  void close(std::int64_t id);
  std::vector<Span> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::deque<Span> spans_;
};

inline constexpr std::int64_t kCurrentParent = -2;

/// Records one span when `log` is non-null; the parent defaults to the
/// innermost span open on this thread. Always measures its own duration,
/// so callers can time a call with stop() whether tracing is on or off.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t op,
             std::int64_t parent = kCurrentParent, bool opaque = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }
  /// Ends the span now (idempotent) and returns its length.
  double stop();

 private:
  SpanLog* log_;
  std::int64_t id_ = -1;
  std::int64_t saved_current_ = -1;
  std::int64_t start_ns_ = 0;
  double seconds_ = -1;
};

/// Aggregates over spans of one name.
struct SpanTotals {
  std::int64_t calls = 0;
  double total_s = 0;
  std::vector<double> durations_s;
};
std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

/// Self time per layer (the prefix of a span name before its first '.'):
/// each span's length minus the union of its children's intervals.
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans);

/// What one pass measured.
struct Pass {
  SpanLog* spans = nullptr;  ///< null for an untraced pass
  std::vector<double> latencies_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t check_failures = 0;    ///< failed checks not tied to one op
  std::vector<std::string> failures;  ///< the first few, for the log
  double timed_s = 0;
  double cpu_s = 0;
  int cycles = 0;
  Counters counters;        ///< the current cycle's counters
  Counters cycle_counters;  ///< the first cycle's, which all must equal
  // Shard-runner time of exact checks (traced passes only).
  double shard_busy_s = 0;      ///< summed over shard jobs
  double shard_capacity_s = 0;  ///< runner wall time x threads
  double shard_runner_s = 0;    ///< runner wall time
  /// Per-cycle end-to-end figures; a run reports their medians, which a
  /// burst of load from outside the benchmark moves less than totals.
  std::vector<double> cycle_ops_per_s;
  std::vector<double> cycle_p50_ms;
  std::vector<double> cycle_tail_ms;
  std::vector<double> cycle_cpu_ms_per_op;

  bool traced() const { return spans != nullptr; }
  bool correct() const { return failed == 0 && check_failures == 0; }
  /// A failed check that belongs to no single op (ledgers, counters).
  void fail(const std::string& why);
  /// One finished op: its latency and whether every check on it held.
  void op_done(double latency_s, bool ok, const std::string& why = "");
  void count(const std::string& name, std::int64_t delta) {
    counters[name] += delta;
  }
};

/// Brackets the part of a cycle that end-to-end metrics time.
class TimedSection {
 public:
  explicit TimedSection(Pass& pass);
  ~TimedSection();
  TimedSection(const TimedSection&) = delete;
  TimedSection& operator=(const TimedSection&) = delete;

 private:
  Pass& pass_;
  std::int64_t start_ns_;
  double start_cpu_;
};

/// Per-layer metric values by name.
using Metrics = std::map<std::string, double>;

/// Sets out[name] = num / den, or leaves it unset when den is 0: a layer
/// the pass never called reports nothing rather than a made-up zero.
void put_ratio(Metrics& out, const char* name, double num, double den);
/// Sets out[name] = count when the pass counted any.
void put_count(Metrics& out, const char* name, double count);

/// The counter `name` of the first cycle, 0 when never counted.
std::int64_t counter(const Pass& pass, const std::string& name);

/// A ShardRunner over sweep::shard_runner(threads) that records a
/// "sweep.shard_runner" span per call and a "core.submodel_shard" span
/// per shard, and adds to the pass's shard_* times.
rrfd::core::ShardRunner instrumented_runner(int threads, SpanLog* log,
                                            std::int64_t op,
                                            std::int64_t parent, Pass& pass);
/// Adds an exhaustive check's EnumStats to the cycle counters.
void count_enum_stats(Pass& pass, const rrfd::core::EnumStats& stats);
/// The submodel figures shared by every workload that runs exact checks;
/// `check_spans` names the spans around the whole checks.
void submodel_metrics(const Pass& pass,
                      const std::map<std::string, SpanTotals>& totals,
                      const std::vector<const char*>& check_spans,
                      Metrics& out);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input and reference result from the seed.
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs one cycle: timed ops inside TimedSections, checks, counters.
  virtual void run_cycle(Pass& pass) = 0;
  /// Per-layer metrics from a traced pass (spans and cycle counters).
  virtual void layer_metrics(const Pass& pass,
                             const std::vector<Span>& spans,
                             Metrics& out) const = 0;
  /// The tail percentile: the highest of p90 and p99 that leaves at
  /// least ten of a cycle's ops beyond it.
  virtual double tail_q() const = 0;
};

std::unique_ptr<Workload> make_serve_mixed();
std::unique_ptr<Workload> make_modelcheck_deep();
std::unique_ptr<Workload> make_sim_runtime();

/// Repeats w.run_cycle until `seconds` of timed work and `min_cycles`
/// cycles are done; checks that every cycle's counters equal the first's
/// and that a cycle leaves ten ops beyond the tail percentile.
void run_pass(Workload& w, double seconds, int min_cycles, Pass& pass);

/// Common per-layer figures of one span name: calls, p50, total.
double p50_ms(const std::map<std::string, SpanTotals>& t, const char* name);
double total_s(const std::map<std::string, SpanTotals>& t, const char* name);

}  // namespace perfbench
