// The engine's round loop held against independent oracles.
//
// Three contracts, one oracle each:
//  * a run's trace stream must reconstruct it: the replayer's pattern and
//    round count equal the RunResult's, and re-running on the replayed
//    announcements (or on the reset adversary) reproduces the RunResult
//    and the event stream byte for byte;
//  * FloodMin::absorb_round, the engine's only batch hook, must be
//    observationally identical to n per-process absorb() calls: same
//    RunResult bytes (pattern, rounds, decisions) and same trace event
//    stream as PerProcessFloodMin, which hides the hook;
//  * the DeliveryViews the engine hands out must match the
//    pre-DeliveryView inbox semantics (one vector<optional<Message>> per
//    recipient per round), recomputed here from the recorded pattern.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agreement/flood_min.h"
#include "core/adversaries.h"
#include "per_process_flood_min.h"
#include "trace/replay.h"
#include "trace/trace.h"

namespace rrfd::core {
namespace {

/// Emits its id, materializes every view it receives (the inbox oracle
/// needs the post-hoc copy; views die with the absorb call), decides after
/// `decide_after` rounds on the set of peers heard in the final round.
struct Recorder {
  using Message = int;
  using Decision = std::uint64_t;

  ProcId id = 0;
  Round decide_after = 1;
  Round rounds_seen = 0;
  std::vector<std::vector<std::optional<int>>> inboxes;
  std::vector<ProcessSet> fault_sets;

  int emit(Round) { return id; }

  void absorb(Round r, const DeliveryView<int>& view, const ProcessSet& d) {
    EXPECT_EQ(view.faults(), d);
    EXPECT_EQ(view.senders(), d.complement());
    rounds_seen = r;
    std::vector<std::optional<int>> inbox(static_cast<std::size_t>(view.n()));
    for (ProcId j : view.senders()) {
      inbox[static_cast<std::size_t>(j)] = view[j];
      EXPECT_EQ(view.get(j), &view[j]);
    }
    for (ProcId j : d) EXPECT_EQ(view.get(j), nullptr);
    inboxes.push_back(std::move(inbox));
    fault_sets.push_back(d);
  }

  bool decided() const { return rounds_seen >= decide_after; }
  std::uint64_t decision() const {
    if (fault_sets.empty()) return 0;
    ProcessSet heard(fault_sets.back().n());
    for (std::size_t j = 0; j < inboxes.back().size(); ++j) {
      if (inboxes.back()[j]) heard.add(static_cast<ProcId>(j));
    }
    return heard.bits();
  }
};

std::vector<Recorder> recorders(int n, Round decide_after) {
  std::vector<Recorder> ps;
  for (ProcId i = 0; i < n; ++i) {
    Recorder rec;
    rec.id = i;
    rec.decide_after = decide_after;
    ps.push_back(rec);
  }
  return ps;
}

std::vector<AdversaryPtr> zoo(int n, std::uint64_t seed) {
  const int f = n > 2 ? n / 2 : 1;
  std::vector<AdversaryPtr> out;
  out.push_back(std::make_unique<BenignAdversary>(n));
  out.push_back(std::make_unique<OmissionAdversary>(n, f, seed));
  out.push_back(std::make_unique<CrashAdversary>(n, f, seed));
  out.push_back(std::make_unique<AsyncAdversary>(n, f, seed));
  out.push_back(std::make_unique<SwmrAdversary>(n, f, seed));
  out.push_back(std::make_unique<SnapshotAdversary>(n, f, seed));
  out.push_back(std::make_unique<KUncertaintyAdversary>(n, f, seed));
  out.push_back(std::make_unique<ImmortalAdversary>(n, seed));
  out.push_back(std::make_unique<EqualAdversary>(n, seed));
  return out;
}

/// Runs n fresh Recorders against `adversary` under a capture sink.
RunResult<std::uint64_t> traced_recorder_run(
    int n, Adversary& adversary, const EngineOptions& options,
    trace::CaptureRecorder& sink) {
  std::vector<Recorder> ps = recorders(n, 6);
  trace::ScopedTrace scoped(&sink);
  return run_rounds(ps, adversary, options);
}

TEST(EngineEquivalence, RecorderAgreesAcrossAdversaryZoo) {
  // The trace stream is the engine's second account of a run. For every
  // adversary in the zoo it must agree with the RunResult, and a rerun
  // driven by the replayed announcements -- or by the reset adversary --
  // must reproduce both the RunResult and the stream exactly.
  for (int n : {2, 3, 5, 8, 17, 33, 64}) {
    for (std::uint64_t seed : {1u, 7u, 1234u}) {
      for (const AdversaryPtr& adv : zoo(n, seed)) {
        SCOPED_TRACE(adv->name() + " n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        EngineOptions options;
        options.max_rounds = 9;
        trace::CaptureRecorder recorded_trace;
        const auto recorded =
            traced_recorder_run(n, *adv, options, recorded_trace);

        trace::TraceReplayer replayer(
            trace::Trace{trace::kTraceSchema, "", recorded_trace.events()});
        ASSERT_TRUE(replayer.recorded_rounds().has_value());
        EXPECT_EQ(*replayer.recorded_rounds(), recorded.rounds);
        EXPECT_EQ(replayer.recorded_pattern(), recorded.pattern);

        trace::CaptureRecorder scripted_trace;
        const AdversaryPtr scripted = replayer.scripted_adversary();
        const auto replayed =
            traced_recorder_run(n, *scripted, options, scripted_trace);
        replayer.verify_matches(scripted_trace.events());

        adv->reset();
        trace::CaptureRecorder rerun_trace;
        const auto rerun = traced_recorder_run(n, *adv, options, rerun_trace);
        replayer.verify_matches(rerun_trace.events());

        for (const RunResult<std::uint64_t>* other : {&replayed, &rerun}) {
          EXPECT_EQ(other->pattern, recorded.pattern);
          EXPECT_EQ(other->rounds, recorded.rounds);
          EXPECT_EQ(other->all_decided, recorded.all_decided);
          EXPECT_EQ(other->decisions, recorded.decisions);
        }
      }
    }
  }
}

TEST(EngineEquivalence, FloodMinBatchAbsorbAgreesAcrossAdversaryZoo) {
  for (int n : {2, 5, 16, 64}) {
    // Duplicated and descending inputs exercise argmin ties.
    std::vector<int> inputs;
    for (ProcId i = 0; i < n; ++i) inputs.push_back((n - i) % (n / 2 + 1));
    for (std::uint64_t seed : {3u, 99u}) {
      for (const AdversaryPtr& adv : zoo(n, seed)) {
        EngineOptions options;
        options.max_rounds = 8;
        expect_batch_matches_per_process(inputs, /*decide_round=*/4, *adv,
                                         options);
      }
    }
  }
}

TEST(EngineEquivalence, FloodMinBatchAbsorbMatchesChainLowerBound) {
  // The Corollary 4.2 construction: k crash chains force k+1 decisions out
  // of flood-min truncated at floor(f/k) rounds. The batch hook must
  // reproduce the violation decisions exactly.
  const int k = 2;
  const int f = 6;
  const int n = k * (f / k) + k + 1;
  ChainAdversary adv(n, f, k);
  EngineOptions options;
  options.max_rounds = adv.rounds();
  expect_batch_matches_per_process(adv.violating_inputs(), adv.rounds(), adv,
                                   options);

  std::vector<agreement::FloodMin> ps;
  for (int v : adv.violating_inputs()) ps.emplace_back(v, adv.rounds());
  auto result = run_rounds(ps, adv, options);
  EXPECT_EQ(static_cast<int>(result.distinct_decisions().size()), k + 1);
}

TEST(EngineEquivalence, WordViewsMatchInboxSemantics) {
  // Pre-DeliveryView oracle: recompute each recipient's per-round inbox
  // (one optional<Message> per sender) from the recorded pattern and
  // require the materialized views to match it exactly, for every
  // adversary in the zoo.
  for (int n : {2, 3, 5, 8, 17, 33, 64}) {
    for (std::uint64_t seed : {1u, 7u, 1234u}) {
      for (const AdversaryPtr& adv : zoo(n, seed)) {
        std::vector<Recorder> ps = recorders(n, 6);
        EngineOptions options;
        options.max_rounds = 9;
        const auto result = run_rounds(ps, *adv, options);
        ASSERT_EQ(result.rounds, 6) << adv->name();
        for (ProcId i = 0; i < n; ++i) {
          const Recorder& p = ps[static_cast<std::size_t>(i)];
          ASSERT_EQ(static_cast<Round>(p.inboxes.size()), result.rounds);
          EXPECT_EQ(p.decision(),
                    result.decisions[static_cast<std::size_t>(i)]);
          for (Round r = 1; r <= result.rounds; ++r) {
            const ProcessSet d = result.pattern.d(i, r);
            EXPECT_EQ(p.fault_sets[static_cast<std::size_t>(r - 1)], d);
            for (ProcId j = 0; j < n; ++j) {
              std::optional<int> expected;
              if (!d.contains(j)) expected = j;  // Recorder emits its id
              EXPECT_EQ(p.inboxes[static_cast<std::size_t>(r - 1)]
                                 [static_cast<std::size_t>(j)],
                        expected)
                  << adv->name() << " i=" << i << " j=" << j << " r=" << r;
            }
          }
        }
      }
    }
  }
}

TEST(EngineEquivalence, WordPathRejectsFullAnnouncementWord) {
  // D(i,r) = S is structurally forbidden, and so is a word naming a
  // process outside S: FaultPattern::append enforces both on every round
  // the engine records.
  class WordAdversary final : public Adversary {
   public:
    explicit WordAdversary(std::uint64_t word) : word_(word) {}
    int n() const override { return 3; }
    std::string name() const override { return "fixed-word"; }
    void next_round(std::uint64_t* out) override {
      out[0] = out[1] = out[2] = word_;
    }
    void reset() override {}

   private:
    std::uint64_t word_;
  };
  for (std::uint64_t word : {std::uint64_t{0x7}, std::uint64_t{0x8}}) {
    WordAdversary adv(word);
    std::vector<Recorder> ps = recorders(3, 1);
    EXPECT_THROW(run_rounds(ps, adv), ContractViolation) << word;
  }
}

}  // namespace
}  // namespace rrfd::core
