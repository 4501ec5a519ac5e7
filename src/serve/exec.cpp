#include "serve/exec.h"

#include <sstream>
#include <string>
#include <vector>

#include "agreement/flood_min.h"
#include "agreement/one_round_kset.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "core/submodel.h"
#include "ho/compile.h"
#include "sweep/submodel_parallel.h"
#include "sweep/sweep.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/str.h"

namespace rrfd::serve {

namespace {

/// Digest of one engine run's decisions (same fold as the sweep tests).
template <typename Decision>
std::uint64_t decisions_digest(
    const std::vector<std::optional<Decision>>& decisions) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& d : decisions) {
    digest ^= static_cast<std::uint64_t>(d ? *d : -1);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

/// Seals a result: the done payload carries the row count plus an
/// FNV-1a over the row payload bytes, so "byte-identical result stream"
/// is checkable from the done line alone.
JobResult seal(JobResult result) {
  std::string all;
  for (const std::string& row : result.rows) {
    all += row;
    all += '\n';
  }
  result.done = cat("\"rows\":", result.rows.size(),
                    ",\"stream_digest\":", fnv1a(all), result.done);
  return result;
}

JobResult failure(std::string code, std::string detail) {
  JobResult result;
  result.failed = true;
  result.error_code = std::move(code);
  result.error_detail = std::move(detail);
  return result;
}

// --------------------------------------------------------------------------
// sweep: the E1 workload, one row per trial
// --------------------------------------------------------------------------

JobResult run_sweep(const Request& req, int sweep_threads) {
  const int n = req.n;
  const int k = req.k;
  const auto digests = sweep::run(
      req.trials, req.seed,
      [n, k](int, Rng& rng) {
        std::vector<agreement::OneRoundKSet> ps;
        for (int i = 0; i < n; ++i) ps.emplace_back(i + 1);
        core::KUncertaintyAdversary adv(n, k, rng());
        const auto run = core::run_rounds(ps, adv);
        return decisions_digest(run.decisions);
      },
      sweep_threads);
  JobResult result;
  result.rows.reserve(digests.size());
  for (std::size_t trial = 0; trial < digests.size(); ++trial) {
    result.rows.push_back(
        cat("\"trial\":", trial, ",\"digest\":", digests[trial]));
  }
  return seal(std::move(result));
}

// --------------------------------------------------------------------------
// modelcheck: exhaustive spec-vs-spec placement
// --------------------------------------------------------------------------

JobResult run_modelcheck(const Request& req, int sweep_threads) {
  const core::PredicatePtr a = ho::compile_text(req.spec_a);
  const core::PredicatePtr b = ho::compile_text(req.spec_b);
  const core::EquivalenceResult eq = sweep::equivalent_exhaustive(
      *a, *b, req.n, req.rounds, sweep_threads);
  JobResult result;
  const auto row = [](const char* dir, const core::ImplicationResult& r) {
    return cat("\"dir\":\"", dir, "\",\"holds\":", r.holds ? "true" : "false",
               ",\"patterns\":", r.patterns_checked);
  };
  result.rows.push_back(row("forward", eq.forward));
  result.rows.push_back(row("backward", eq.backward));
  result.done = cat(",\"equivalent\":",
                    eq.forward.holds && eq.backward.holds ? "true" : "false");
  return seal(std::move(result));
}

// --------------------------------------------------------------------------
// replay: byte-identical re-execution of an uploaded trace
// --------------------------------------------------------------------------

JobResult run_replay(const Request& req) {
  std::istringstream is(req.trace);
  trace::TraceReplayer replayer(trace::read_trace(is));
  if (replayer.substrate() != trace::Substrate::kEngine) {
    return failure("unsupported_substrate",
                   cat("replay serves engine traces; got ",
                       trace::substrate_name(replayer.substrate())));
  }
  const int n = replayer.n();
  const core::AdversaryPtr adversary = replayer.scripted_adversary();

  trace::CaptureRecorder capture;
  std::uint64_t digest = 0;
  {
    trace::ScopedTrace attach(&capture);
    if (req.protocol == ReplayProtocol::kFloodMin) {
      // The flight_recorder example's workload: FloodMin(i*3+1, f+1).
      std::vector<agreement::FloodMin> ps;
      for (int i = 0; i < n; ++i) ps.emplace_back(i * 3 + 1, req.f + 1);
      digest = decisions_digest(core::run_rounds(ps, *adversary).decisions);
    } else {
      std::vector<agreement::OneRoundKSet> ps;
      for (int i = 0; i < n; ++i) ps.emplace_back(i + 1);
      digest = decisions_digest(core::run_rounds(ps, *adversary).decisions);
    }
  }
  try {
    replayer.verify_matches(capture.events());
  } catch (const ContractViolation& e) {
    return failure("replay_divergence", e.message());
  }
  JobResult result;
  result.rows.push_back(cat("\"events\":", capture.events().size(),
                            ",\"byte_identical\":true,\"decision_digest\":",
                            digest, ",\"trace_rev\":\"",
                            json_escape(replayer.trace().git_rev), "\""));
  return seal(std::move(result));
}

}  // namespace

JobResult execute(const Request& req, int sweep_threads) {
  RRFD_REQUIRE_MSG(req.op == Op::kSubmit, "execute() takes submitted jobs");
  try {
    switch (req.kind) {
      case JobKind::kSweep: return run_sweep(req, sweep_threads);
      case JobKind::kModelCheck: return run_modelcheck(req, sweep_threads);
      case JobKind::kReplay: return run_replay(req);
    }
    RRFD_ENSURE_MSG(false, "unreachable job kind");
    return {};
  } catch (const ContractViolation& e) {
    return failure("exec_error", e.message());
  } catch (const std::exception& e) {
    return failure("exec_error", e.what());
  }
}

}  // namespace rrfd::serve
