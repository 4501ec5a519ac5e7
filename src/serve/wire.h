// The `rrfd-job-v1` wire protocol: line-delimited JSON over a local
// pipe pair (sweep_serve reads requests on stdin, writes responses on
// stdout) or any byte stream a caller wants to frame lines over.
//
// Requests -- one object per line, strictly parsed (DESIGN.md "Job
// server"): a missing/mismatched schema, an unknown op/kind/field, a
// duplicated field, an out-of-range value, or a line that does not close
// its object are all *named* rejections (`ErrorCode`), never silent
// drops and never best-effort guesses. Examples:
//
//   {"schema":"rrfd-job-v1","op":"submit","client":"c1","id":"j1",
//    "kind":"sweep","n":6,"k":2,"trials":100,"seed":7}
//   {"schema":"rrfd-job-v1","op":"submit","client":"c1","id":"j2",
//    "kind":"modelcheck","spec_a":"loss_cap(1)","spec_b":"mobile(1)",
//    "n":3,"rounds":1}
//   {"schema":"rrfd-job-v1","op":"submit","client":"c1","id":"j3",
//    "kind":"replay","protocol":"flood_min","f":2,
//    "trace":"{\"schema\":\"rrfd-trace-v1\",...}\n..."}
//   {"schema":"rrfd-job-v1","op":"stats"}
//
// Responses are rendered by the Server (server.h); this header owns the
// request grammar, on top of the shared flat-JSON scanner (util/json.h).
// The *result stream* of a job (its `row` and `done` payloads) is a pure
// function of the job's canonical form and seed, which is what makes
// results cacheable by (canonical form, seed, git rev) -- see cache.h.
#pragma once

#include <cstdint>
#include <string>

#include "util/json.h"

namespace rrfd::serve {

inline constexpr const char* kJobSchema = "rrfd-job-v1";

/// Named rejection reasons. Every malformed request maps to exactly one
/// of these; the code is echoed verbatim in the `error` response line so
/// clients (and the admission tests) can assert on it.
enum class ErrorCode : std::uint8_t {
  kTornLine,        ///< line does not close its object (torn/interleaved)
  kParseError,      ///< not a flat JSON object of known value shapes
  kBadVersion,      ///< schema field missing or not rrfd-job-v1
  kUnknownOp,       ///< op is not submit|stats
  kUnknownKind,     ///< kind is not sweep|modelcheck|replay
  kUnknownField,    ///< a field this op/kind does not define
  kDuplicateField,  ///< the same field appears twice
  kMissingField,    ///< a required field is absent
  kBadValue,        ///< a field parsed but is out of its documented range
};

const char* error_code_name(ErrorCode code);

/// Thrown by parse_request; carries the named code plus a human detail,
/// and the request's id once the parser has read a non-empty one (else
/// the id is empty).
class WireError {
 public:
  WireError(ErrorCode code, std::string detail, std::string id = {})
      : code_(code), detail_(std::move(detail)), id_(std::move(id)) {}

  ErrorCode code() const { return code_; }
  const std::string& detail() const { return detail_; }
  const std::string& id() const { return id_; }

 private:
  ErrorCode code_;
  std::string detail_;
  std::string id_;
};

enum class Op : std::uint8_t { kSubmit, kStats };
enum class JobKind : std::uint8_t { kSweep, kModelCheck, kReplay };

/// Replay workloads the server knows how to re-instantiate. A trace
/// records the adversary's choices, not the protocol, so the request
/// names the protocol that produced it (see exec.h).
enum class ReplayProtocol : std::uint8_t { kFloodMin, kKSet };

/// A validated request. For op == kSubmit exactly the fields of `kind`
/// are populated; everything else is zero/empty.
struct Request {
  Op op = Op::kSubmit;
  std::string client;  ///< tenant name (admission accounting key)
  std::string id;      ///< client-chosen correlation id, echoed back

  JobKind kind = JobKind::kSweep;

  // sweep
  int n = 0;
  int k = 0;
  int trials = 0;
  std::uint64_t seed = 0;

  // modelcheck (also uses n)
  std::string spec_a;
  std::string spec_b;
  int rounds = 0;

  // replay
  ReplayProtocol protocol = ReplayProtocol::kFloodMin;
  int f = 0;  ///< flood_min fault budget (kset reuses `k`)
  std::string trace;  ///< full rrfd-trace-v1 JSONL content

  /// The canonical form: a deterministic rendering of every
  /// result-affecting field except the seed (specs are canonicalized
  /// through the HO parser, traces through a content digest). Two
  /// requests with equal canonical forms and equal seeds have
  /// byte-identical result streams; see cache.h for the full cache key.
  std::string canonical() const;
};

/// Parses one request line strictly; throws WireError on any deviation.
Request parse_request(const std::string& line);

/// Response rendering escapes strings, and trace canonicalization and
/// result-stream checksums digest bytes, with the shared util/json.h
/// helpers, also reachable under these names.
using rrfd::fnv1a;
using rrfd::json_escape;

}  // namespace rrfd::serve
