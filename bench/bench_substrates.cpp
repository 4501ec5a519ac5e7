// E11 -- Substrate performance and structural guarantees.
//
// Covers the building blocks the other experiments stand on:
//  * the round engine itself: emit/announce/absorb throughput of the
//    zero-copy delivery path every other experiment runs on;
//  * item 5: immediate-snapshot rounds satisfy the containment predicate;
//  * item 3's system B: two quorum-skew rounds implement one async round
//    (why A is not a weakest RRFD for message passing);
//  * snapshot implementations: reference vs Afek construction step costs.
#include "shm/snapshot.h"

#include "agreement/flood_min.h"
#include "bench_util.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "core/predicates.h"
#include "runtime/schedulers.h"
#include "xform/round_combiner.h"
#include "util/rng.h"

namespace {

using namespace rrfd;

void summary() {
  bench::banner(
      "E11a / item 5: immediate snapshots realize the snapshot RRFD",
      "Claim: one-shot immediate snapshot views satisfy self-inclusion and\n"
      "containment -- the item-5 predicate with D(i,r) the view complement.");
  {
    bench::Table table({"n", "runs", "containment violations",
                        "self-inclusion violations"});
    for (int n : {4, 8, 16}) {
      int containment_bad = 0, self_bad = 0;
      const int runs = 100;
      for (int trial = 0; trial < runs; ++trial) {
        shm::ImmediateSnapshot<int> snap(n);
        std::vector<std::optional<shm::View<int>>> views(
            static_cast<std::size_t>(n));
        runtime::Simulation sim(n, [&](runtime::Context& ctx) {
          views[static_cast<std::size_t>(ctx.id())] =
              snap.participate(ctx, ctx.id());
        });
        runtime::RandomScheduler sched(10u * static_cast<unsigned>(trial) + 3u);
        sim.run(sched);
        for (int i = 0; i < n; ++i) {
          const auto& vi = views[static_cast<std::size_t>(i)];
          if (!vi) continue;
          if (!(*vi)[static_cast<std::size_t>(i)]) ++self_bad;
          for (int j = i + 1; j < n; ++j) {
            const auto& vj = views[static_cast<std::size_t>(j)];
            if (!vj) continue;
            if (!shm::view_contains(*vi, *vj) &&
                !shm::view_contains(*vj, *vi)) {
              ++containment_bad;
            }
          }
        }
      }
      table.add_row({std::to_string(n), std::to_string(runs),
                     std::to_string(containment_bad),
                     std::to_string(self_bad)});
    }
    table.print();
  }
  bench::banner(
      "E11b / item 3: two rounds of system B implement one round of A",
      "Claim: with f < t and 2t < n, quorum-skew(t, f) relayed over two\n"
      "rounds satisfies the per-round bound f -- so A is NOT a weakest\n"
      "RRFD for asynchronous message passing.");
  {
    bench::Table table({"n", "t", "f", "derived |D| max", "bound f holds",
                        "trials"});
    struct Cfg { int n, t, f; };
    for (Cfg cfg : {Cfg{7, 3, 1}, Cfg{9, 4, 2}, Cfg{21, 8, 3}}) {
      Rng rng(static_cast<std::uint64_t>(cfg.n));
      int max_d = 0;
      bool holds = true;
      const int trials = 200;
      for (int trial = 0; trial < trials; ++trial) {
        core::FaultPattern b(cfg.n);
        for (int round = 0; round < 2; ++round) {
          core::RoundFaults rf;
          std::vector<int> q =
              rng.sample_without_replacement(cfg.n, cfg.t);  // maximal Q
          core::ProcessSet in_q(cfg.n);
          for (int p : q) in_q.add(p);
          for (core::ProcId i = 0; i < cfg.n; ++i) {
            // Maximal-size misses: the hardest patterns inside B.
            const int bound = in_q.contains(i) ? cfg.t : cfg.f;
            core::ProcessSet d(cfg.n);
            for (int m : rng.sample_without_replacement(cfg.n, bound)) {
              d.add(m);
            }
            rf.push_back(d);
          }
          b.append(rf);
        }
        core::FaultPattern a = xform::async_from_quorum_skew(b);
        for (core::ProcId i = 0; i < cfg.n; ++i) {
          max_d = std::max(max_d, a.d(i, 1).size());
        }
        holds = holds && core::async_message_passing(cfg.f)->holds(a);
      }
      table.add_row({std::to_string(cfg.n), std::to_string(cfg.t),
                     std::to_string(cfg.f), std::to_string(max_d),
                     holds ? "yes" : "NO", std::to_string(trials)});
    }
    table.print();
  }
}

// The round loop every experiment stands on: flood-min over a fault-free
// adversary, fixed round count, so the timing isolates the engine's
// emit/announce/deliver cycle rather than any algorithm or adversary cost.
void bm_engine_round_loop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const core::Round rounds = 64;
  core::EngineOptions opts;
  opts.max_rounds = rounds;
  opts.stop_when_all_decided = false;
  core::BenignAdversary adv(n);
  for (auto _ : state) {
    std::vector<agreement::FloodMin> ps;
    ps.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) ps.emplace_back(i, rounds);
    adv.reset();
    auto result = core::run_rounds(ps, adv, opts);
    benchmark::DoNotOptimize(result.rounds);
  }
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(bm_engine_round_loop)->Arg(8)->Arg(32)->Arg(64)->ArgName("n");

void bm_immediate_snapshot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    shm::ImmediateSnapshot<int> snap(n);
    runtime::Simulation sim(n, [&](runtime::Context& ctx) {
      benchmark::DoNotOptimize(snap.participate(ctx, ctx.id()));
    });
    runtime::RandomScheduler sched(seed++);
    sim.run(sched);
  }
}
BENCHMARK(bm_immediate_snapshot)->Arg(4)->Arg(8)->Arg(16)->ArgName("n");

void bm_afek_snapshot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    shm::AfekSnapshot<int> snap(n);
    runtime::Simulation sim(n, [&](runtime::Context& ctx) {
      snap.update(ctx, ctx.id());
      benchmark::DoNotOptimize(snap.scan(ctx));
    });
    runtime::RandomScheduler sched(seed++);
    sim.run(sched, 1 << 20);
  }
}
BENCHMARK(bm_afek_snapshot)->Arg(4)->Arg(8)->Arg(16)->ArgName("n");

void bm_direct_snapshot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    shm::DirectSnapshot<int> snap(n);
    runtime::Simulation sim(n, [&](runtime::Context& ctx) {
      snap.update(ctx, ctx.id());
      benchmark::DoNotOptimize(snap.scan(ctx));
    });
    runtime::RandomScheduler sched(seed++);
    sim.run(sched);
  }
}
BENCHMARK(bm_direct_snapshot)->Arg(4)->Arg(8)->Arg(16)->ArgName("n");

}  // namespace

RRFD_BENCH_MAIN(summary)
