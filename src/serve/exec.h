// Executing one admitted job against the existing engines.
//
// Each kind maps onto machinery the repository already trusts:
//
//   sweep      -> sweep::run over one-round k-set agreement trials under
//                 seeded k-uncertainty adversaries (the E1 workload);
//                 one `row` per trial carrying the decision digest.
//   modelcheck -> ho::compile_text both specs, then
//                 sweep::equivalent_exhaustive; rows
//                 carry the per-direction verdicts and pattern counts.
//   replay     -> parse the uploaded rrfd-trace-v1, re-instantiate the
//                 named protocol, re-run it under the trace's scripted
//                 adversary, and verify_matches the re-execution against
//                 the recording. Divergence is a named failure
//                 ("replay_divergence"), byte-identity a result row.
//
// Every result is a pure function of (Request::canonical(), seed): no
// wall clock, no environment, no iteration-order leaks -- which is what
// entitles the server to cache it (cache.h). The caller is responsible
// for tracer exclusivity: replay attaches the process-wide trace sink,
// so it must never run concurrently with any other job (server.cpp
// holds a shared_mutex exclusively around replay execution).
#pragma once

#include "serve/cache.h"
#include "serve/wire.h"

namespace rrfd::serve {

/// Executes `req` (op == kSubmit) and returns its result stream.
/// `sweep_threads` is the inner fan-out for sweep/modelcheck jobs
/// (0/1 = serial, the RRFD_SWEEP_THREADS convention); it never changes
/// result bytes, only wall-clock. Execution failures come back as a
/// failed JobResult, not an exception.
JobResult execute(const Request& req, int sweep_threads);

}  // namespace rrfd::serve
