#include "agreement/phase_consensus.h"

#include <memory>

namespace rrfd::agreement {

PhaseConsensusResult run_phase_consensus(const std::vector<int>& inputs,
                                         int max_phases,
                                         runtime::Scheduler& scheduler,
                                         int max_steps) {
  const int n = static_cast<int>(inputs.size());
  RRFD_REQUIRE(0 < n && n <= core::kMaxProcesses);
  RRFD_REQUIRE(max_phases >= 1);

  struct Phase {
    shm::SwmrRegister<std::optional<int>> leader_estimate;
    AdoptCommit ac;

    Phase(int n_, core::ProcId leader)
        : leader_estimate(leader, std::nullopt), ac(n_) {}
  };
  std::vector<std::unique_ptr<Phase>> phases;
  for (int p = 0; p < max_phases; ++p) {
    phases.push_back(
        std::make_unique<Phase>(n, static_cast<core::ProcId>(p % n)));
  }

  PhaseConsensusResult result(n);

  runtime::Simulation sim(n, [&](runtime::Context& ctx) {
    const core::ProcId i = ctx.id();
    int estimate = inputs[static_cast<std::size_t>(i)];
    for (int p = 0; p < max_phases; ++p) {
      Phase& phase = *phases[static_cast<std::size_t>(p)];

      // Leader suggestion.
      if (phase.leader_estimate.owner() == i) {
        phase.leader_estimate.write(ctx, estimate);
      }
      const std::optional<int> suggested = phase.leader_estimate.read(ctx);
      if (suggested) estimate = *suggested;

      // Adopt-commit on the (possibly re-aligned) estimates.
      const AdoptCommitResult ac = phase.ac.run(ctx, estimate);
      estimate = ac.value;
      if (ac.commit) {
        result.decisions[static_cast<std::size_t>(i)] = estimate;
        result.decision_phase[static_cast<std::size_t>(i)] = p + 1;
        return;  // decided; halt
      }
    }
  });

  runtime::SimOutcome outcome = sim.run(scheduler, max_steps);
  result.crashed = outcome.crashed;
  result.all_alive_decided = true;
  for (core::ProcId i = 0; i < n; ++i) {
    if (!result.crashed.contains(i) &&
        !result.decisions[static_cast<std::size_t>(i)]) {
      result.all_alive_decided = false;
    }
  }
  return result;
}

}  // namespace rrfd::agreement
