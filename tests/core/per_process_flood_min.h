// FloodMin without its batch hook, for the engine equivalence suites.
//
// agreement::FloodMin provides absorb_round (core::WordAbsorbProcess), so
// the engine advances a vector of them one whole round at a time. This
// wrapper forwards emit/absorb/decided/decision to a FloodMin but does
// not expose absorb_round, so the engine drives it through n per-process
// absorb() calls over DeliveryViews instead. Both must be observably
// identical: same RunResult, same trace stream.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "agreement/flood_min.h"
#include "core/engine.h"
#include "trace/trace.h"

namespace rrfd::core {

class PerProcessFloodMin {
 public:
  using Message = agreement::FloodMin::Message;
  using Decision = agreement::FloodMin::Decision;

  PerProcessFloodMin(int input, Round decide_round)
      : inner_(input, decide_round) {}

  Message emit(Round r) const { return inner_.emit(r); }
  void absorb(Round r, const DeliveryView<Message>& view,
              const ProcessSet& d) {
    inner_.absorb(r, view, d);
  }
  bool decided() const { return inner_.decided(); }
  Decision decision() const { return inner_.decision(); }

 private:
  agreement::FloodMin inner_;
};

/// Runs FloodMin (batch hook) and PerProcessFloodMin (per-process absorb)
/// over the same inputs and the reset adversary, requiring byte-identical
/// results and trace streams.
inline void expect_batch_matches_per_process(
    const std::vector<int>& inputs, Round decide_round, Adversary& adversary,
    const EngineOptions& options) {
  trace::CaptureRecorder batch_trace;
  std::vector<agreement::FloodMin> batch_ps;
  for (int v : inputs) batch_ps.emplace_back(v, decide_round);
  const RunResult<int> batch = [&] {
    trace::ScopedTrace scoped(&batch_trace);
    return run_rounds(batch_ps, adversary, options);
  }();

  adversary.reset();
  trace::CaptureRecorder single_trace;
  std::vector<PerProcessFloodMin> single_ps;
  for (int v : inputs) single_ps.emplace_back(v, decide_round);
  const RunResult<int> single = [&] {
    trace::ScopedTrace scoped(&single_trace);
    return run_rounds(single_ps, adversary, options);
  }();
  adversary.reset();

  const std::string what = adversary.name();
  EXPECT_EQ(batch.pattern, single.pattern) << what;
  EXPECT_EQ(batch.rounds, single.rounds) << what;
  EXPECT_EQ(batch.all_decided, single.all_decided) << what;
  EXPECT_EQ(batch.decisions, single.decisions) << what;
  ASSERT_EQ(batch_trace.events().size(), single_trace.events().size())
      << what;
  for (std::size_t k = 0; k < batch_trace.events().size(); ++k) {
    EXPECT_EQ(batch_trace.events()[k], single_trace.events()[k])
        << what << " event " << k;
  }
}

}  // namespace rrfd::core
