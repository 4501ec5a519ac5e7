// Shared helpers for the experiment benches.
//
// Every bench binary reproduces one experiment from DESIGN.md's index: it
// first prints a plain-text summary table (the "paper-shape" result that
// EXPERIMENTS.md records), then runs google-benchmark timings. The
// summary is computed from the same library code the tests validate.
//
// Two output channels, kept strictly separate:
//  * the summary goes to stdout for humans, but to stderr whenever a
//    machine format is requested (--benchmark_format=json|csv), so that
//    `bench_x --benchmark_format=json | python3 -m json.tool` parses;
//  * every run additionally appends one machine-readable JSON object to
//    BENCH_rrfd.json (override the path with RRFD_BENCH_JSON, tag the
//    entry with RRFD_BENCH_LABEL) -- the perf trajectory the ROADMAP
//    tracks. See EXPERIMENTS.md for the schema. The record is written
//    with a single O_APPEND write so concurrent bench processes never
//    interleave partial lines.
//
// Summary sweeps can opt into the parallel sweep executor with
// RRFD_SWEEP_THREADS (see sweep/sweep.h and bench::sweep_trials below);
// the google-benchmark timing loops themselves always stay serial, since
// they measure per-op latency.
#pragma once

#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rrfd_git_rev.h"  // generated: RRFD_GIT_REV
#include "sweep/sweep.h"
#include "util/json.h"
#include "util/str.h"

namespace rrfd::bench {

namespace detail {
inline std::ostream*& summary_stream() {
  static std::ostream* stream = &std::cout;
  return stream;
}
}  // namespace detail

/// Where experiment summaries go: stdout normally, stderr when the
/// benchmark output itself must stay machine-parseable.
inline std::ostream& summary_out() { return *detail::summary_stream(); }

/// Plain fixed-width table printer for experiment summaries.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : widths_(headers.size()) {
    rows_.push_back(std::move(headers));
    for (std::size_t c = 0; c < rows_[0].size(); ++c) {
      widths_[c] = rows_[0][c].size();
    }
  }

  void add_row(std::vector<std::string> cells) {
    RRFD_REQUIRE(cells.size() == widths_.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      widths_[c] = std::max(widths_[c], cells[c].size());
    }
    rows_.push_back(std::move(cells));
  }

  void print(std::ostream& os) const {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << "  ";
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        os << pad_left(rows_[r][c], widths_[c]) << (c + 1 < rows_[r].size() ? "  " : "");
      }
      os << '\n';
      if (r == 0) {
        os << "  ";
        for (std::size_t c = 0; c < widths_.size(); ++c) {
          os << std::string(widths_[c], '-') << (c + 1 < widths_.size() ? "  " : "");
        }
        os << '\n';
      }
    }
  }

  void print() const { print(summary_out()); }

 private:
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> widths_;
};

inline void banner(const std::string& experiment, const std::string& claim) {
  summary_out() << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

// ---------------------------------------------------------------------------
// Machine-readable result emission (BENCH_rrfd.json).
// ---------------------------------------------------------------------------

/// One timed benchmark (one google-benchmark run).
struct ResultRecord {
  std::string name;            ///< e.g. "bm_engine_round_loop/n:32"
  std::int64_t iterations = 0;
  double real_per_op = 0.0;    ///< in `time_unit`
  double cpu_per_op = 0.0;     ///< in `time_unit`
  std::string time_unit;       ///< "ns", "us", ...
  std::vector<std::pair<std::string, double>> counters;
};

namespace detail {

inline std::string json_number(double v) {
  // JSON has no NaN/Inf; clamp to null-ish zero rather than emit garbage.
  if (!(v == v) || v > 1e308 || v < -1e308) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Captures every run while delegating display to the format-appropriate
/// base reporter (so --benchmark_format keeps working verbatim).
template <typename Base>
class CapturingReporter : public Base {
 public:
  template <typename... Args>
  explicit CapturingReporter(std::vector<ResultRecord>* sink, Args&&... args)
      : Base(std::forward<Args>(args)...), sink_(sink) {}

  void ReportRuns(
      const std::vector<benchmark::BenchmarkReporter::Run>& reports) override {
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      if (run.run_type ==
          benchmark::BenchmarkReporter::Run::RT_Aggregate) {
        continue;  // keep raw iterations only; aggregates are derivable
      }
      ResultRecord rec;
      rec.name = run.benchmark_name();
      rec.iterations = static_cast<std::int64_t>(run.iterations);
      rec.real_per_op = run.GetAdjustedRealTime();
      rec.cpu_per_op = run.GetAdjustedCPUTime();
      rec.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      for (const auto& [key, counter] : run.counters) {
        rec.counters.emplace_back(key, counter.value);
      }
      sink_->push_back(std::move(rec));
    }
    Base::ReportRuns(reports);
  }

 private:
  std::vector<ResultRecord>* sink_;
};

}  // namespace detail

namespace detail {

/// Appends `line` to `path` with one O_APPEND write(2). POSIX makes the
/// seek-to-end + write atomic under O_APPEND, so records from concurrent
/// bench processes land whole -- an ofstream in append mode may flush a
/// record across several writes, and two racing processes can then
/// interleave partial lines (torn lines the strict parsers now call out).
inline void append_atomically(const std::string& path,
                              const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    std::cerr << "rrfd-bench: cannot open " << path << " for append\n";
    return;
  }
  ssize_t wrote;
  do {
    wrote = ::write(fd, line.data(), line.size());
  } while (wrote < 0 && errno == EINTR);
  if (wrote != static_cast<ssize_t>(line.size())) {
    std::cerr << "rrfd-bench: short/failed append to " << path << '\n';
  }
  ::close(fd);
}

}  // namespace detail

/// Appends one JSON object (a single line) describing this bench run to
/// BENCH_rrfd.json / $RRFD_BENCH_JSON. The file is JSON Lines: each line
/// parses standalone, and the whole file is a perf trajectory over time.
/// The record is emitted with a single O_APPEND write, so concurrent
/// bench runs appending to the same file cannot tear each other's lines.
inline void write_results_json(const std::string& experiment,
                               const std::vector<ResultRecord>& records) {
  if (records.empty()) return;
  const char* path_env = std::getenv("RRFD_BENCH_JSON");
  const std::string path = path_env ? path_env : "BENCH_rrfd.json";
  const char* label_env = std::getenv("RRFD_BENCH_LABEL");

  std::ostringstream os;
  os << "{\"experiment\":\"" << json_escape(experiment) << "\""
     << ",\"git_rev\":\"" << json_escape(RRFD_GIT_REV) << "\"";
  // `label` is always present (empty when RRFD_BENCH_LABEL is unset):
  // downstream diffing tools key rows on it, and a sometimes-missing
  // field made "unlabeled" indistinguishable from "written by an old
  // binary". The bench-smoke validator rejects label-less rows.
  os << ",\"label\":\""
     << json_escape(label_env ? label_env : "") << "\"";
  os << ",\"results\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ResultRecord& r = records[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << json_escape(r.name) << "\""
       << ",\"iterations\":" << r.iterations
       << ",\"real_per_op\":" << detail::json_number(r.real_per_op)
       << ",\"cpu_per_op\":" << detail::json_number(r.cpu_per_op)
       << ",\"time_unit\":\"" << json_escape(r.time_unit) << "\"";
    if (!r.counters.empty()) {
      os << ",\"counters\":{";
      for (std::size_t c = 0; c < r.counters.size(); ++c) {
        if (c > 0) os << ',';
        os << "\"" << json_escape(r.counters[c].first)
           << "\":" << detail::json_number(r.counters[c].second);
      }
      os << '}';
    }
    os << '}';
  }
  os << "]}\n";
  detail::append_atomically(path, os.str());
}

/// Opt-in parallel summary sweeps: fn(trial, rng) per trial, fanned over
/// RRFD_SWEEP_THREADS workers (serial by default), results in trial
/// order and byte-identical to a serial run -- see sweep/sweep.h for the
/// determinism contract. Benches that call this must link rrfd_sweep.
template <typename Fn>
auto sweep_trials(int n_trials, std::uint64_t seed, Fn&& fn) {
  return ::rrfd::sweep::run(n_trials, seed, std::forward<Fn>(fn));
}

/// The shared main: routes the summary, runs google-benchmark with a
/// capturing reporter, and appends the machine-readable record.
inline int bench_main(int argc, char** argv, void (*summary_fn)()) {
  // Respect --benchmark_format before google-benchmark even parses it:
  // a machine format owns stdout, so the summary moves to stderr.
  std::string format = "console";
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--benchmark_format=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      format = argv[i] + std::strlen(prefix);
    }
  }
  const bool machine = (format != "console");
  if (machine) detail::summary_stream() = &std::cerr;

  summary_fn();

  ::benchmark::Initialize(&argc, &argv[0]);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  std::vector<ResultRecord> records;
  std::size_t ran = 0;
  if (format == "json") {
    detail::CapturingReporter<benchmark::JSONReporter> reporter(&records);
    ran = ::benchmark::RunSpecifiedBenchmarks(&reporter);
  } else if (format == "csv") {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
    detail::CapturingReporter<benchmark::CSVReporter> reporter(&records);
#pragma GCC diagnostic pop
    ran = ::benchmark::RunSpecifiedBenchmarks(&reporter);
  } else {
    // Match the library's default console behaviour: colors only on ttys.
    const auto opts = isatty(fileno(stdout))
                          ? benchmark::ConsoleReporter::OO_ColorTabular
                          : benchmark::ConsoleReporter::OO_Tabular;
    detail::CapturingReporter<benchmark::ConsoleReporter> reporter(&records,
                                                                   opts);
    ran = ::benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  (void)ran;

  // argv[0] may carry a path; the experiment name is the binary name.
  std::string experiment = argv[0] ? argv[0] : "bench";
  const std::size_t slash = experiment.find_last_of('/');
  if (slash != std::string::npos) experiment = experiment.substr(slash + 1);
  write_results_json(experiment, records);

  ::benchmark::Shutdown();
  return 0;
}

}  // namespace rrfd::bench

/// Standard main: experiment summary first, then benchmark timings, then
/// the BENCH_rrfd.json trajectory record.
#define RRFD_BENCH_MAIN(summary_fn)                        \
  int main(int argc, char** argv) {                        \
    return ::rrfd::bench::bench_main(argc, argv, summary_fn); \
  }
