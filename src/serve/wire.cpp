#include "serve/wire.h"

#include <cctype>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "ho/parse.h"
#include "ho/spec.h"
#include "trace/trace.h"
#include "util/check.h"
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

/// One parsed field value: a string or a non-negative integer. The
/// protocol has no floats, booleans, nulls, arrays, or nested objects --
/// anything else on a request line is a parse_error by design.
struct Value {
  bool is_string = false;
  std::string str;
  std::uint64_t num = 0;
};

/// Strict scanner for one flat request object. Mirrors the trace
/// parser's posture (trace.cpp): known shapes only, loud failures.
class Scanner {
 public:
  explicit Scanner(const std::string& line) : line_(line) {}

  std::vector<std::pair<std::string, Value>> object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> fields;
    if (!consume('}')) {
      do {
        std::string key = string_value();
        expect(':');
        fields.emplace_back(std::move(key), value());
      } while (consume(','));
      expect('}');
    }
    skip_ws();
    if (pos_ != line_.size()) {
      fail(ErrorCode::kParseError, where() + ": trailing characters");
    }
    return fields;
  }

 private:
  std::string where() const { return cat("col ", pos_ + 1); }

  /// Inter-token whitespace is legal JSON (json.dumps emits ": ") and
  /// carries no information -- tolerating it is not leniency about
  /// *content*, which stays strict. Newlines stay excluded: the
  /// transport is line-delimited, so one can never appear mid-object.
  void skip_ws() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t')) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= line_.size() || line_[pos_] != c) {
      fail(ErrorCode::kParseError,
           where() + ": expected '" + std::string(1, c) + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < line_.size() && line_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value value() {
    skip_ws();
    Value v;
    if (pos_ < line_.size() && line_[pos_] == '"') {
      v.is_string = true;
      v.str = string_value();
      return v;
    }
    if (pos_ < line_.size() && line_[pos_] == '-') {
      // The protocol's integers are all counts, sizes, or seeds; a
      // negative value is never meaningful and is rejected by name.
      fail(ErrorCode::kBadValue, where() + ": negative integer");
    }
    if (pos_ >= line_.size() ||
        !std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      fail(ErrorCode::kParseError, where() + ": expected string or integer");
    }
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      const auto digit = static_cast<std::uint64_t>(line_[pos_++] - '0');
      if (v.num > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        fail(ErrorCode::kBadValue, where() + ": integer overflow");
      }
      v.num = v.num * 10 + digit;
    }
    return v;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < line_.size() && line_[pos_] != '"') {
      char c = line_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= line_.size()) {
        fail(ErrorCode::kParseError, where() + ": dangling escape");
      }
      char esc = line_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > line_.size()) {
            fail(ErrorCode::kParseError, where() + ": truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = line_[pos_++];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') digit = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') digit = static_cast<unsigned>(h - 'A' + 10);
            else fail(ErrorCode::kParseError, where() + ": bad \\u escape");
            code = code * 16 + digit;
          }
          if (code >= 0x80) {
            fail(ErrorCode::kParseError, where() + ": non-ASCII \\u escape");
          }
          out += static_cast<char>(code);
          break;
        }
        default:
          fail(ErrorCode::kParseError, where() + ": unsupported escape");
      }
    }
    expect('"');
    return out;
  }

  const std::string& line_;
  std::size_t pos_ = 0;
};

/// Field accessor over the scanned object: tracks which fields were
/// consumed so leftovers become unknown_field, and rejects duplicates.
class Fields {
 public:
  explicit Fields(std::vector<std::pair<std::string, Value>> fields)
      : fields_(std::move(fields)) {
    for (const auto& [key, value] : fields_) {
      if (!by_name_.emplace(key, &value).second) {
        fail(ErrorCode::kDuplicateField, "field '" + key + "' appears twice");
      }
    }
  }

  std::string str(const std::string& key) {
    const Value& v = take(key);
    if (!v.is_string) {
      fail(ErrorCode::kBadValue, "field '" + key + "' must be a string");
    }
    return v.str;
  }

  std::uint64_t uint(const std::string& key) {
    const Value& v = take(key);
    if (v.is_string) {
      fail(ErrorCode::kBadValue, "field '" + key + "' must be an integer");
    }
    return v.num;
  }

  /// A bounded integer field; bounds violations name the field.
  int bounded(const std::string& key, int lo, int hi) {
    const std::uint64_t v = uint(key);
    if (v < static_cast<std::uint64_t>(lo) ||
        v > static_cast<std::uint64_t>(hi)) {
      fail(ErrorCode::kBadValue, cat("field '", key, "' must be in [", lo,
                                     ", ", hi, "], got ", v));
    }
    return static_cast<int>(v);
  }

  bool has(const std::string& key) const { return by_name_.count(key) > 0; }

  /// Every field must have been consumed by now.
  void finish() const {
    for (const auto& [key, value] : fields_) {
      (void)value;
      if (taken_.count(key) == 0) {
        fail(ErrorCode::kUnknownField,
             "field '" + key + "' is not part of this request");
      }
    }
  }

 private:
  const Value& take(const std::string& key) {
    auto it = by_name_.find(key);
    if (it == by_name_.end()) {
      fail(ErrorCode::kMissingField, "required field '" + key + "' is absent");
    }
    taken_.insert(key);
    return *it->second;
  }

  std::vector<std::pair<std::string, Value>> fields_;
  std::map<std::string, const Value*> by_name_;
  std::set<std::string> taken_;
};

}  // namespace

const char* error_code_name(ErrorCode code) {
  const auto idx = static_cast<std::size_t>(code);
  RRFD_REQUIRE(idx < std::size(kErrorNames));
  return kErrorNames[idx];
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
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

  Fields fields(Scanner(line.substr(0, end)).object());

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
             "spec '" + *spec + "' does not parse: " + e.what());
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
           std::string("embedded trace does not parse: ") + e.what());
    }
  } else {
    fail(ErrorCode::kUnknownKind, "unknown job kind '" + kind + "'");
  }

  fields.finish();
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
