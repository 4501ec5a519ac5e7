#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <chrono>
#include <cmath>

#include "sweep/submodel_parallel.h"

namespace perfbench {

namespace {

thread_local std::int64_t t_current_span = -1;

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

std::int64_t now_ns() {
  // rrfd-lint: allow(no-wall-clock) -- the benchmark times the library
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

CpuSet::CpuSet() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
}

CpuSet::~CpuSet() { release(); }

void CpuSet::pin(std::size_t k) const {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[k % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

void CpuSet::release() const {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof saved_, &saved_);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::int64_t SpanLog::open(const char* name, std::int64_t op,
                           std::int64_t parent, bool opaque) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.opaque = opaque;
  s.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {spans_.begin(), spans_.end()};
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::int64_t op,
                       std::int64_t parent, bool opaque)
    : log_(log) {
  if (log_ != nullptr) {
    saved_current_ = t_current_span;
    id_ = log_->open(name, op,
                     parent == kCurrentParent ? t_current_span : parent,
                     opaque);
    t_current_span = id_;
  }
  start_ns_ = now_ns();
}

double ScopedSpan::stop() {
  if (seconds_ < 0) {
    seconds_ = static_cast<double>(now_ns() - start_ns_) * 1e-9;
    if (log_ != nullptr) {
      log_->close(id_);
      t_current_span = saved_current_;
    }
  }
  return seconds_;
}

ScopedSpan::~ScopedSpan() { stop(); }

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    SpanTotals& t = out[s.name];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++t.calls;
    t.total_s += d;
    t.durations_s.push_back(d);
  }
  return out;
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.opaque) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

double p50_ms(const std::map<std::string, SpanTotals>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : quantile(it->second.durations_s, 0.5) * 1e3;
}

double total_s(const std::map<std::string, SpanTotals>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second.total_s;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

void Pass::fail(const std::string& why) {
  ++check_failures;
  if (failures.size() < 8) failures.push_back(why);
}

void Pass::op_done(double latency_s, bool ok, const std::string& why) {
  ++attempted;
  latencies_ms.push_back(latency_s * 1e3);
  if (!ok) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
}

std::int64_t counter(const Pass& pass, const std::string& name) {
  const auto it = pass.cycle_counters.find(name);
  return it == pass.cycle_counters.end() ? 0 : it->second;
}

rrfd::core::ShardRunner instrumented_runner(int threads, SpanLog* log,
                                            std::int64_t op,
                                            std::int64_t parent, Pass& pass) {
  rrfd::core::ShardRunner inner = rrfd::sweep::shard_runner(threads);
  return [inner, threads, log, op, parent, &pass](
             int n_jobs, const std::function<void(int)>& job) {
    std::atomic<std::int64_t> busy_ns{0};
    ScopedSpan runner(log, "sweep.shard_runner", op, parent);
    const std::int64_t runner_id = runner.id();
    inner(n_jobs, [&](int j) {
      ScopedSpan shard(log, "core.submodel_shard", op, runner_id);
      job(j);
      busy_ns += static_cast<std::int64_t>(shard.stop() * 1e9);
    });
    const double wall = runner.stop();
    pass.shard_busy_s += static_cast<double>(busy_ns) * 1e-9;
    pass.shard_capacity_s += wall * std::max(1, threads);
    pass.shard_runner_s += wall;
  };
}

void count_enum_stats(Pass& pass, const rrfd::core::EnumStats& s) {
  pass.count("core.submodel.checks", 1);
  pass.count("core.submodel.nodes", s.nodes);
  pass.count("core.submodel.decided", s.patterns_decided);
  pass.count("core.submodel.pruned", s.pruned_subtrees);
  pass.count("core.submodel.memo_hits", s.memo_hits);
  pass.count("core.submodel.memo_misses", s.memo_misses);
  pass.count("core.submodel.memo_entries", s.memo_entries);
}

void put_ratio(Metrics& out, const char* name, double num, double den) {
  if (den > 0) out[name] = num / den;
}

void put_count(Metrics& out, const char* name, double count) {
  if (count > 0) out[name] = count;
}

void submodel_metrics(const Pass& pass,
                      const std::map<std::string, SpanTotals>& totals,
                      const std::vector<const char*>& check_spans,
                      Metrics& out) {
  double check_s = 0;
  for (const char* name : check_spans) check_s += total_s(totals, name);
  const auto c = [&pass](const char* name) {
    return static_cast<double>(counter(pass, name));
  };
  const double nodes = c("core.submodel.nodes");
  const double hits = c("core.submodel.memo_hits");
  put_ratio(out, "core.submodel.ns_per_node", check_s * 1e9 / pass.cycles,
            nodes);
  put_count(out, "core.submodel.nodes", nodes);
  put_count(out, "core.submodel.decided", c("core.submodel.decided"));
  put_ratio(out, "core.submodel.pruning_ratio", c("core.submodel.decided"),
            nodes);
  put_ratio(out, "core.submodel.memo_hit_ratio", hits,
            hits + c("core.submodel.memo_misses"));
  put_count(out, "core.submodel.memo_entries", c("core.submodel.memo_entries"));
  put_ratio(out, "sweep.shard.busy_ratio", pass.shard_busy_s,
            pass.shard_capacity_s);
  put_ratio(out, "sweep.check.serial_share", check_s - pass.shard_runner_s,
            check_s);
}

TimedSection::TimedSection(Pass& pass)
    : pass_(pass), start_ns_(now_ns()), start_cpu_(process_cpu_s()) {}

TimedSection::~TimedSection() {
  pass_.timed_s += static_cast<double>(now_ns() - start_ns_) * 1e-9;
  pass_.cpu_s += process_cpu_s() - start_cpu_;
}

void run_pass(Workload& w, double seconds, int min_cycles, Pass& pass) {
  while (pass.cycles < min_cycles || pass.timed_s < seconds) {
    pass.counters.clear();
    const std::size_t first = pass.latencies_ms.size();
    const double timed = pass.timed_s;
    const double cpu = pass.cpu_s;
    w.run_cycle(pass);
    const std::vector<double> cycle(
        pass.latencies_ms.begin() + static_cast<std::ptrdiff_t>(first),
        pass.latencies_ms.end());
    const auto ops = static_cast<double>(cycle.size());
    if (ops * (1 - w.tail_q()) < 10 - 1e-9) {
      pass.fail("a cycle leaves fewer than ten ops beyond the tail");
    }
    pass.cycle_ops_per_s.push_back(ops / (pass.timed_s - timed));
    pass.cycle_p50_ms.push_back(quantile(cycle, 0.5));
    pass.cycle_tail_ms.push_back(quantile(cycle, w.tail_q()));
    pass.cycle_cpu_ms_per_op.push_back((pass.cpu_s - cpu) * 1e3 / ops);
    if (pass.cycles == 0) {
      pass.cycle_counters = pass.counters;
    } else if (pass.counters != pass.cycle_counters) {
      pass.fail("work counters differ between cycles at one seed");
    }
    ++pass.cycles;
  }
}

}  // namespace perfbench
