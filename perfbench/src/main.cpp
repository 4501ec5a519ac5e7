// rrfd_perfbench: runs one benchmark workload and prints its metrics.
//
//   rrfd_perfbench --workload serve-mixed|modelcheck-deep|sim-runtime
//                  --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// then measures it for S seconds untraced and prints the end-to-end
// metrics. --trace 1 measures an untraced pass and a traced pass of the
// same workload, checks that their work counters agree, and prints the
// per-layer metrics and the tracing overhead; layers this workload does
// not call are measured on one traced cycle of the workload that does.
// Every output is checked; the last stdout line is one JSON object with
// keys correct, attempted, failed and metrics, and the exit code is
// non-zero when any check failed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "trace/trace.h"

namespace {

using namespace perfbench;

constexpr int kSetups = 9;
/// Fewest cycles a measured pass runs, so its medians have company.
constexpr int kMinCycles = 3;

struct WorkloadInfo {
  const char* name;
  std::unique_ptr<Workload> (*make)();
};

constexpr WorkloadInfo kWorkloads[] = {
    {"serve-mixed", make_serve_mixed},
    {"modelcheck-deep", make_modelcheck_deep},
    {"sim-runtime", make_sim_runtime},
};

struct MetricInfo {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, in output order.
constexpr MetricInfo kLayerMetrics[] = {
    {"serve.wire.parse_ns", "ns"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.cache.leads", "count"},
    {"serve.queue.wait_p50_ms", "ms"},
    {"serve.exec.sweep_p50_ms", "ms"},
    {"serve.exec.modelcheck_p50_ms", "ms"},
    {"serve.exec.replay_p50_ms", "ms"},
    {"sweep.run.ns_per_trial", "ns"},
    {"sweep.run.calls", "count"},
    {"sweep.shard.busy_ratio", "ratio"},
    {"sweep.check.serial_share", "ratio"},
    {"core.engine.ns_per_round", "ns"},
    {"core.engine.rounds", "count"},
    {"core.submodel.ns_per_node", "ns"},
    {"core.submodel.nodes", "count"},
    {"core.submodel.decided", "count"},
    {"core.submodel.pruning_ratio", "ratio"},
    {"core.submodel.memo_hit_ratio", "ratio"},
    {"core.submodel.memo_entries", "count"},
    {"ho.compile.us_per_spec", "us"},
    {"trace.read.ns_per_event", "ns"},
    {"trace.verify.ns_per_event", "ns"},
    {"trace.events", "count"},
    {"runtime.sim.ns_per_step", "ns"},
    {"runtime.sim.steps", "count"},
    {"runtime.sim.empty_run_us", "us"},
    {"runtime.explore.schedules", "count"},
    {"runtime.explore.schedules_per_s", "1/s"},
    {"xform.crash_sim.ms_per_sim_round", "ms"},
    {"msgpass.round_sim.us_per_round", "us"},
    {"semisync.step_sim.ns_per_event", "ns"},
    {"semisync.step_sim.events", "count"},
    {"serve.self_us_per_op", "us"},
    {"sweep.self_us_per_op", "us"},
    {"core.self_us_per_op", "us"},
    {"ho.self_us_per_op", "us"},
    {"trace.self_us_per_op", "us"},
    {"runtime.self_us_per_op", "us"},
    {"xform.self_us_per_op", "us"},
    {"msgpass.self_us_per_op", "us"},
    {"semisync.self_us_per_op", "us"},
    {"tracing.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  int trace = 0;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rrfd_perfbench: " << why
            << "\nusage: rrfd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--spans") {
        a.spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Self time of every layer per op of `pass`, for layers it called.
void self_times(const Pass& pass, const std::vector<Span>& spans,
                Metrics& out) {
  for (const auto& [layer, seconds] : self_seconds_by_layer(spans)) {
    put_ratio(out, (layer + ".self_us_per_op").c_str(), seconds * 1e6,
              static_cast<double>(pass.attempted));
  }
}

/// Adds `from` to `into` for metrics `into` does not have yet.
void merge_missing(Metrics& into, const Metrics& from) {
  for (const auto& [name, value] : from) into.emplace(name, value);
}

/// Writes up to *budget spans as JSON lines, tagged with their pass.
void write_spans(const char* pass_name, const std::vector<Span>& spans,
                 std::ofstream& os, std::size_t* budget) {
  for (const Span& s : spans) {
    if (*budget == 0) return;
    --*budget;
    os << "{\"pass\":\"" << pass_name << "\",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op
       << ",\"opaque\":" << (s.opaque ? "true" : "false") << "}\n";
  }
}

struct Reported {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Reported> metrics;
  Counters counters;

  void absorb(const Pass& p, const char* label) {
    attempted += p.attempted;
    failed += p.failed + p.check_failures;
    correct = correct && p.correct();
    for (const std::string& f : p.failures) {
      std::cout << "FAILED (" << label << "): " << f << "\n";
    }
  }
};

const WorkloadInfo& find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return w;
  }
  usage("unknown workload '" + name + "'");
}

int run(const Args& args) {
  const WorkloadInfo& info = find_workload(args.workload);

  // Pinned configuration: nothing from the environment reaches the run.
  rrfd::trace::Tracer::attach(nullptr);

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w = info.make();
    const std::int64_t start = now_ns();
    w->setup(args.seed);
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  Outcome out;
  Pass plain;
  run_pass(*w, args.seconds, kMinCycles, plain);
  out.absorb(plain, "untraced");
  out.counters = plain.cycle_counters;
  const double ops = static_cast<double>(plain.attempted);
  const double ops_per_s = quantile(plain.cycle_ops_per_s, 0.5);

  std::cout << "workload " << info.name << " seed " << args.seed << ": "
            << plain.cycles << " cycles, " << plain.attempted << " ops, "
            << "tail = p" << static_cast<int>(w->tail_q() * 100) << "\n";

  if (args.trace == 0) {
    const auto add = [&out](const char* name, double v, const char* unit) {
      out.metrics.push_back({name, v, unit});
    };
    add("ops_per_s", ops_per_s, "1/s");
    add("latency_p50_ms", quantile(plain.cycle_p50_ms, 0.5), "ms");
    add("latency_tail_ms", quantile(plain.cycle_tail_ms, 0.5), "ms");
    add("cpu_ms_per_op", quantile(plain.cycle_cpu_ms_per_op, 0.5), "ms");
    add("setup_s", quantile(setup_s, 0.5), "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "  " << "failed_ratio" << " = "
              << json_number(static_cast<double>(plain.failed) / ops)
              << " ratio\n";
  } else {
    SpanLog log;
    Pass traced;
    traced.spans = &log;
    run_pass(*w, args.seconds / 2, kMinCycles, traced);
    out.absorb(traced, "traced");
    for (const auto& [name, value] : traced.cycle_counters) {
      const auto it = plain.cycle_counters.find(name);
      if (it != plain.cycle_counters.end() && it->second != value) {
        std::cout << "FAILED: counter " << name << " is " << it->second
                  << " untraced but " << value << " traced\n";
        out.correct = false;
      }
      out.counters[name] = value;
    }
    const std::vector<Span> spans = log.snapshot();
    Metrics layer;
    w->layer_metrics(traced, spans, layer);
    self_times(traced, spans, layer);
    layer["tracing.overhead_pct"] =
        (ops_per_s / quantile(traced.cycle_ops_per_s, 0.5) - 1) * 100;

    std::ofstream spans_out;
    std::size_t budget = 200000;
    if (!args.spans_path.empty()) {
      spans_out.open(args.spans_path);
      write_spans(info.name, spans, spans_out, &budget);
    }
    // Exact checks are modelcheck-deep's home, so it fills in before
    // serve-mixed's small ones.
    for (const char* name : {"modelcheck-deep", "serve-mixed", "sim-runtime"}) {
      const WorkloadInfo& other = find_workload(name);
      if (&other == &info) continue;
      std::unique_ptr<Workload> ow = other.make();
      ow->setup(args.seed);
      SpanLog other_log;
      Pass p;
      p.spans = &other_log;
      run_pass(*ow, 0, 1, p);
      out.absorb(p, other.name);
      const std::vector<Span> other_spans = other_log.snapshot();
      Metrics m;
      ow->layer_metrics(p, other_spans, m);
      self_times(p, other_spans, m);
      merge_missing(layer, m);
      if (spans_out.is_open()) {
        write_spans(other.name, other_spans, spans_out, &budget);
      }
    }
    for (const MetricInfo& m : kLayerMetrics) {
      const auto it = layer.find(m.name);
      if (it == layer.end()) {
        std::cout << "FAILED: no traced call measured " << m.name << "\n";
        out.correct = false;
        continue;
      }
      out.metrics.push_back({m.name, it->second, m.unit});
    }
  }

  for (const Reported& m : out.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "counters {";
  const char* sep = "";
  for (const auto& [name, value] : out.counters) {
    std::cout << sep << "\"" << name << "\":" << value;
    sep = ",";
  }
  std::cout << "}\n";

  std::cout << "{\"correct\":" << (out.correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted << ",\"failed\":"
            << out.failed << ",\"metrics\":{";
  sep = "";
  for (const Reported& m : out.metrics) {
    std::cout << sep << "\"" << m.name << "\":{\"value\":" << json_number(m.value)
              << ",\"unit\":\"" << m.unit << "\"}";
    sep = ",";
  }
  std::cout << "}}" << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "rrfd_perfbench: " << e.what() << "\n";
    return 1;
  }
}
