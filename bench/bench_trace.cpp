// Flight-recorder overhead: tracing must cost nothing when off.
//
// The claim (DESIGN.md §3): every instrumented event site costs one relaxed
// atomic load and a predicted branch when no sink is attached. The summary
// measures the n = 32 engine round loop four ways --
//
//   handrolled  the same emit/announce/deliver cycle written out with no
//               trace sites at all (the true floor),
//   off         the instrumented core::run_rounds with no sink attached
//               (the config every test and experiment runs in),
//   ring        RingRecorder attached (the always-on flight recorder),
//   jsonl       JsonlWriter streaming to a null sink (full serialization),
//
// -- and reports the overhead of `off` relative to `handrolled`, which the
// acceptance bar requires to stay within 2%.
#include <benchmark/benchmark.h>

#include <chrono>
#include <ostream>
#include <streambuf>

#include "agreement/flood_min.h"
#include "bench_util.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "trace/trace.h"

namespace {

using rrfd::core::BenignAdversary;
using rrfd::core::DeliveryView;
using rrfd::core::EngineOptions;
using rrfd::core::FaultPattern;
using rrfd::core::ProcessSet;
using rrfd::core::ProcId;
using rrfd::core::Round;
using rrfd::agreement::FloodMin;

constexpr int kProcs = 32;
constexpr Round kRounds = 64;

std::vector<FloodMin> make_processes(int n) {
  std::vector<FloodMin> ps;
  ps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ps.emplace_back(i, kRounds);
  return ps;
}

/// The engine's round loop written out by hand with no trace sites: the
/// floor the instrumented engine is measured against.
int run_handrolled(int n) {
  auto ps = make_processes(n);
  BenignAdversary adv(n);
  FaultPattern pattern(n);
  std::vector<int> emitted;
  emitted.reserve(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> d(static_cast<std::size_t>(n));
  for (Round r = 1; r <= kRounds; ++r) {
    emitted.clear();
    for (ProcId i = 0; i < n; ++i) {
      emitted.push_back(ps[static_cast<std::size_t>(i)].emit(r));
    }
    adv.next_round(d.data());
    pattern.append(d.data());
    for (ProcId i = 0; i < n; ++i) {
      const ProcessSet di =
          ProcessSet::from_bits(n, d[static_cast<std::size_t>(i)]);
      const DeliveryView<int> view(emitted.data(), di);
      ps[static_cast<std::size_t>(i)].absorb(r, view, di);
    }
  }
  return ps[0].current_min();
}

/// The instrumented engine under whatever sink is currently attached.
int run_instrumented(int n) {
  auto ps = make_processes(n);
  BenignAdversary adv(n);
  EngineOptions opts;
  opts.max_rounds = kRounds;
  opts.stop_when_all_decided = false;
  auto result = rrfd::core::run_rounds(ps, adv, opts);
  return result.rounds;
}

/// An ostream that discards everything (JSONL serialization cost without
/// filesystem noise).
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize count) override {
    return count;
  }
};

// ---------------------------------------------------------------------------
// google-benchmark timings
// ---------------------------------------------------------------------------

void bm_engine_loop_handrolled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_handrolled(n));
  }
}
BENCHMARK(bm_engine_loop_handrolled)->Arg(8)->Arg(32)->ArgName("n");

void bm_trace_overhead_off(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_instrumented(n));
  }
}
BENCHMARK(bm_trace_overhead_off)->Arg(8)->Arg(32)->ArgName("n");

void bm_trace_overhead_ring(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rrfd::trace::RingRecorder ring(256);
  rrfd::trace::ScopedTrace attach(&ring);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_instrumented(n));
  }
}
BENCHMARK(bm_trace_overhead_ring)->Arg(8)->Arg(32)->ArgName("n");

void bm_trace_overhead_jsonl(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  rrfd::trace::JsonlWriter writer(null_stream);
  rrfd::trace::ScopedTrace attach(&writer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_instrumented(n));
  }
}
BENCHMARK(bm_trace_overhead_jsonl)->Arg(8)->Arg(32)->ArgName("n");

// ---------------------------------------------------------------------------
// Summary: the 2% off-path claim, measured head to head
// ---------------------------------------------------------------------------

double best_ns_per_round(int (*fn)(int), int repeats) {
  using clock = std::chrono::steady_clock;
  // Warm up caches and the branch predictor before timing.
  benchmark::DoNotOptimize(fn(kProcs));
  double best = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto begin = clock::now();
    benchmark::DoNotOptimize(fn(kProcs));
    const auto end = clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count()) /
        static_cast<double>(kRounds);
    if (ns < best) best = ns;
  }
  return best;
}

void summary() {
  using rrfd::bench::Table;
  rrfd::bench::banner(
      "trace overhead (flight recorder off-path cost)",
      "Instrumented run_rounds vs the same loop with no trace sites, "
      "n = 32, 64 rounds. `off` must stay within 2% of `handrolled`.");

  const int repeats = 200;
  const double handrolled = best_ns_per_round(&run_handrolled, repeats);

  const double off = best_ns_per_round(&run_instrumented, repeats);

  rrfd::trace::RingRecorder ring(256);
  double with_ring = 0.0;
  {
    rrfd::trace::ScopedTrace attach(&ring);
    with_ring = best_ns_per_round(&run_instrumented, repeats);
  }

  NullBuffer null_buffer;
  std::ostream null_stream(&null_buffer);
  rrfd::trace::JsonlWriter writer(null_stream);
  double with_jsonl = 0.0;
  {
    rrfd::trace::ScopedTrace attach(&writer);
    with_jsonl = best_ns_per_round(&run_instrumented, repeats);
  }

  auto fmt1 = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string(buf);
  };
  auto pct = [&](double v) { return fmt1((v / handrolled - 1.0) * 100.0) + "%"; };
  auto ns = fmt1;

  Table table({"config", "ns/round", "vs handrolled"});
  table.add_row({"handrolled", ns(handrolled), "--"});
  table.add_row({"off", ns(off), pct(off)});
  table.add_row({"ring", ns(with_ring), pct(with_ring)});
  table.add_row({"jsonl(null)", ns(with_jsonl), pct(with_jsonl)});
  table.print();
  rrfd::bench::summary_out()
      << "\n  acceptance: off within 2% of handrolled ("
      << pct(off) << " measured)\n";
}

}  // namespace

RRFD_BENCH_MAIN(summary)
