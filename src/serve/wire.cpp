#include "serve/wire.h"

#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "ho/parse.h"
#include "ho/spec.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/json.h"
#include "util/str.h"

namespace rrfd::serve {

namespace {

constexpr const char* kErrorNames[] = {
    "torn_line",     "parse_error",     "bad_version",
    "unknown_op",    "unknown_kind",    "unknown_field",
    "duplicate_field", "missing_field", "bad_value",
};

[[noreturn]] void fail(ErrorCode code, const std::string& detail) {
  throw WireError(code, detail);
}

/// One field of a request: its key, its value (a string or a
/// non-negative integer -- the protocol has no floats, booleans, nulls,
/// arrays or nested objects), and whether the grammar has read it.
struct Field {
  std::string key;
  bool is_string = false;
  std::string str;
  std::uint64_t num = 0;
  bool taken = false;
};

/// The fields of one request object, scanned strictly and read by name.
/// Duplicates are rejected up front and fields nobody reads become
/// unknown_field. A request has a handful of fields, so lookup is linear.
class Fields {
 public:
  explicit Fields(std::string_view line) {
    fields_.reserve(9);  // the most any valid request has
    json::Scanner s(line);
    try {
      s.expect('{');
      if (!s.consume('}')) {
        do {
          Field& f = fields_.emplace_back();
          f.key = s.string();
          s.expect(':');
          const char c = s.peek();
          if (c == '"') {
            f.is_string = true;
            f.str = s.string();
          } else if (c == '-') {
            // The protocol's integers are all counts, sizes, or seeds; a
            // negative value is never meaningful and is rejected by name.
            s.fail("negative integer", json::ScanError::Kind::kRange);
          } else if (c >= '0' && c <= '9') {
            f.num = s.uint();
          } else {
            s.fail("expected string or integer");
          }
        } while (s.consume(','));
        s.expect('}');
      }
      s.end();
    } catch (const json::ScanError& e) {
      fail(e.kind() == json::ScanError::Kind::kRange ? ErrorCode::kBadValue
                                                     : ErrorCode::kParseError,
           e.what());
    }
    for (std::size_t k = 1; k < fields_.size(); ++k) {
      if (find(fields_[k].key) != &fields_[k]) {
        fail(ErrorCode::kDuplicateField,
             cat("field '", fields_[k].key, "' appears twice"));
      }
    }
  }

  std::string str(std::string_view key) {
    const Field& f = take(key);
    if (!f.is_string) {
      fail(ErrorCode::kBadValue, cat("field '", key, "' must be a string"));
    }
    return f.str;
  }

  std::uint64_t uint(std::string_view key) {
    const Field& f = take(key);
    if (f.is_string) {
      fail(ErrorCode::kBadValue, cat("field '", key, "' must be an integer"));
    }
    return f.num;
  }

  /// A bounded integer field; bounds violations name the field.
  int bounded(std::string_view key, int lo, int hi) {
    const std::uint64_t v = uint(key);
    if (v < static_cast<std::uint64_t>(lo) ||
        v > static_cast<std::uint64_t>(hi)) {
      fail(ErrorCode::kBadValue, cat("field '", key, "' must be in [", lo,
                                     ", ", hi, "], got ", v));
    }
    return static_cast<int>(v);
  }

  bool has(std::string_view key) { return find(key) != nullptr; }

  /// Every field must have been read by now.
  void finish() const {
    for (const Field& f : fields_) {
      if (!f.taken) {
        fail(ErrorCode::kUnknownField,
             cat("field '", f.key, "' is not part of this request"));
      }
    }
  }

 private:
  /// The first field named `key`, or nullptr.
  Field* find(std::string_view key) {
    for (Field& f : fields_) {
      if (f.key == key) return &f;
    }
    return nullptr;
  }

  Field& take(std::string_view key) {
    Field* f = find(key);
    if (f == nullptr) {
      fail(ErrorCode::kMissingField,
           cat("required field '", key, "' is absent"));
    }
    f->taken = true;
    return *f;
  }

  std::vector<Field> fields_;
};

/// The rest of a submit request after its client and id: the checks of
/// its kind, then that no field is left unread.
void parse_submit(Fields& fields, Request& req) {
  if (req.client.empty() || req.id.empty()) {
    fail(ErrorCode::kBadValue, "client and id must be non-empty");
  }

  const std::string kind = fields.str("kind");
  if (kind == "sweep") {
    req.kind = JobKind::kSweep;
    req.n = fields.bounded("n", 1, 64);
    req.k = fields.bounded("k", 1, req.n);
    req.trials = fields.bounded("trials", 1, 100000);
    req.seed = fields.uint("seed");
  } else if (kind == "modelcheck") {
    req.kind = JobKind::kModelCheck;
    req.n = fields.bounded("n", 1, 6);
    req.rounds = fields.bounded("rounds", 1, 4);
    req.spec_a = fields.str("spec_a");
    req.spec_b = fields.str("spec_b");
    // Validate (and later canonicalize) through the HO parser now, so a
    // malformed spec is a named admission failure, not a mid-execution
    // surprise delivered to every deduped waiter.
    for (const std::string* spec : {&req.spec_a, &req.spec_b}) {
      try {
        (void)ho::parse_spec(*spec);
      } catch (const ContractViolation& e) {
        fail(ErrorCode::kBadValue,
             "spec '" + *spec + "' does not parse: " + e.message());
      }
    }
  } else if (kind == "replay") {
    req.kind = JobKind::kReplay;
    const std::string protocol = fields.str("protocol");
    if (protocol == "flood_min") {
      req.protocol = ReplayProtocol::kFloodMin;
      req.f = fields.bounded("f", 0, 63);
    } else if (protocol == "kset") {
      req.protocol = ReplayProtocol::kKSet;
      req.k = fields.bounded("k", 1, 64);
    } else {
      fail(ErrorCode::kBadValue, "unknown replay protocol '" + protocol + "'");
    }
    req.trace = fields.str("trace");
    // Validate the embedded trace eagerly for the same reason as specs.
    try {
      std::istringstream is(req.trace);
      (void)trace::read_trace(is);
    } catch (const ContractViolation& e) {
      fail(ErrorCode::kBadValue,
           "embedded trace does not parse: " + e.message());
    }
  } else {
    fail(ErrorCode::kUnknownKind, "unknown job kind '" + kind + "'");
  }

  fields.finish();
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  const auto idx = static_cast<std::size_t>(code);
  RRFD_REQUIRE(idx < std::size(kErrorNames));
  return kErrorNames[idx];
}

Request parse_request(const std::string& line) {
  // Torn-line guard first: a line that does not close its object is the
  // signature of an interleaved or interrupted append (same heuristic as
  // the trace reader), and gets its own name so clients can tell a
  // framing failure from a malformed-but-whole request.
  std::size_t end = line.size();
  while (end > 0 && (line[end - 1] == ' ' || line[end - 1] == '\r')) --end;
  if (end == 0 || line[end - 1] != '}') {
    fail(ErrorCode::kTornLine,
         "line does not end in '}': likely a torn line from a "
         "concurrent/interrupted append");
  }

  Fields fields(std::string_view(line).substr(0, end));

  if (!fields.has("schema")) {
    fail(ErrorCode::kBadVersion, "request carries no schema field");
  }
  const std::string schema = fields.str("schema");
  if (schema != kJobSchema) {
    fail(ErrorCode::kBadVersion, "unsupported schema '" + schema +
                                     "' (this server speaks " +
                                     std::string(kJobSchema) + ")");
  }

  Request req;
  const std::string op = fields.str("op");
  if (op == "stats") {
    req.op = Op::kStats;
    fields.finish();
    return req;
  }
  if (op != "submit") {
    fail(ErrorCode::kUnknownOp, "unknown op '" + op + "'");
  }
  req.op = Op::kSubmit;
  req.client = fields.str("client");
  req.id = fields.str("id");
  // From here on a rejection names the request it refuses.
  try {
    parse_submit(fields, req);
  } catch (const WireError& e) {
    throw WireError(e.code(), e.detail(), req.id);
  }
  return req;
}

std::string Request::canonical() const {
  RRFD_REQUIRE_MSG(op == Op::kSubmit, "only submitted jobs have a canonical form");
  switch (kind) {
    case JobKind::kSweep:
      return cat("sweep(n=", n, ",k=", k, ",trials=", trials, ")");
    case JobKind::kModelCheck: {
      // Canonical spec text: whitespace and sugar differences between
      // submissions must not defeat the cache.
      const std::string a = ho::to_text(ho::parse_spec(spec_a));
      const std::string b = ho::to_text(ho::parse_spec(spec_b));
      return cat("modelcheck(n=", n, ",rounds=", rounds, ",a=", a, ",b=", b,
                 ")");
    }
    case JobKind::kReplay: {
      const std::string proto = protocol == ReplayProtocol::kFloodMin
                                    ? cat("flood_min,f=", f)
                                    : cat("kset,k=", k);
      std::ostringstream digest;
      digest << std::hex << fnv1a(trace);
      return cat("replay(", proto, ",trace=", digest.str(), ":",
                 trace.size(), ")");
    }
  }
  RRFD_ENSURE_MSG(false, "unreachable job kind");
  return {};
}

}  // namespace rrfd::serve
