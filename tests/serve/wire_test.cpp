// Strictness of the rrfd-job-v1 request parser: every malformed line
// maps to a *named* rejection (wire.h ErrorCode) -- torn lines, wrong
// schema versions, unknown ops/kinds/fields, duplicates, range
// violations -- and canonical forms are stable under formatting and
// spec-sugar differences (they are the cache key's first component).
#include "serve/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace rrfd::serve {
namespace {

ErrorCode code_of(const std::string& line) {
  try {
    (void)parse_request(line);
  } catch (const WireError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a WireError for: " << line;
  return ErrorCode::kParseError;
}

/// "<code>: <detail>" of the rejection of `line`.
std::string rejection_of(const std::string& line) {
  try {
    (void)parse_request(line);
  } catch (const WireError& e) {
    return std::string(error_code_name(e.code())) + ": " + e.detail();
  }
  ADD_FAILURE() << "expected a WireError for: " << line;
  return {};
}

const std::string kSweep =
    R"({"schema":"rrfd-job-v1","op":"submit","client":"c1","id":"j1",)"
    R"("kind":"sweep","n":6,"k":2,"trials":10,"seed":7})";

TEST(ServeWire, ParsesAWellFormedSweepSubmission) {
  const Request req = parse_request(kSweep);
  EXPECT_EQ(req.op, Op::kSubmit);
  EXPECT_EQ(req.client, "c1");
  EXPECT_EQ(req.id, "j1");
  EXPECT_EQ(req.kind, JobKind::kSweep);
  EXPECT_EQ(req.n, 6);
  EXPECT_EQ(req.k, 2);
  EXPECT_EQ(req.trials, 10);
  EXPECT_EQ(req.seed, 7u);
  EXPECT_EQ(req.canonical(), "sweep(n=6,k=2,trials=10)");
}

TEST(ServeWire, InterTokenWhitespaceIsTolerated) {
  // json.dumps-style ": " / ", " separators are legal JSON formatting,
  // not content; strictness applies to fields and values, not spacing.
  const Request req = parse_request(
      R"({"schema": "rrfd-job-v1", "op": "submit", "client": "c1",)"
      R"( "id": "j1", "kind": "sweep", "n": 6, "k": 2, "trials": 10,)"
      R"( "seed": 7})");
  EXPECT_EQ(req.canonical(), "sweep(n=6,k=2,trials=10)");
  EXPECT_EQ(req.seed, 7u);
}

TEST(ServeWire, FieldOrderDoesNotMatter) {
  const Request req = parse_request(
      R"({"seed":7,"trials":10,"k":2,"n":6,"kind":"sweep","id":"j1",)"
      R"("client":"c1","op":"submit","schema":"rrfd-job-v1"})");
  EXPECT_EQ(req.canonical(), "sweep(n=6,k=2,trials=10)");
}

TEST(ServeWire, TornLinesAreNamed) {
  // A request cut mid-write must be reported as framing damage, not as
  // a generic parse error: the client needs to know bytes were lost.
  EXPECT_EQ(code_of(kSweep.substr(0, kSweep.size() - 1)),
            ErrorCode::kTornLine);
  EXPECT_EQ(code_of(kSweep.substr(0, 25)), ErrorCode::kTornLine);
  EXPECT_EQ(code_of(""), ErrorCode::kTornLine);
  // Trailing carriage returns / spaces are transport artifacts, not tears.
  EXPECT_NO_THROW(parse_request(kSweep + "\r"));
  EXPECT_NO_THROW(parse_request(kSweep + "  "));
}

TEST(ServeWire, SchemaIsMandatoryAndVersioned) {
  EXPECT_EQ(code_of(R"({"op":"stats"})"), ErrorCode::kBadVersion);
  EXPECT_EQ(code_of(R"({"schema":"rrfd-job-v2","op":"stats"})"),
            ErrorCode::kBadVersion);
  EXPECT_EQ(code_of(R"({"schema":"rrfd-trace-v1","op":"stats"})"),
            ErrorCode::kBadVersion);
}

TEST(ServeWire, UnknownOpsAndKindsAreNamed) {
  EXPECT_EQ(code_of(R"({"schema":"rrfd-job-v1","op":"cancel"})"),
            ErrorCode::kUnknownOp);
  EXPECT_EQ(
      code_of(R"({"schema":"rrfd-job-v1","op":"submit","client":"c",)"
              R"("id":"j","kind":"bench"})"),
      ErrorCode::kUnknownKind);
}

TEST(ServeWire, UnknownFieldsAreRejected) {
  // A field the kind does not define is a contract violation, not
  // something to ignore: silently dropped fields hide client bugs and
  // would split the cache key from the client's intent.
  EXPECT_EQ(code_of(
                R"({"schema":"rrfd-job-v1","op":"submit","client":"c1",)"
                R"("id":"j1","kind":"sweep","n":6,"k":2,"trials":10,)"
                R"("seed":7,"nice":1})"),
            ErrorCode::kUnknownField);
  // A modelcheck-only field on a sweep submission is just as unknown.
  EXPECT_EQ(code_of(
                R"({"schema":"rrfd-job-v1","op":"submit","client":"c1",)"
                R"("id":"j1","kind":"sweep","n":6,"k":2,"trials":10,)"
                R"("seed":7,"rounds":1})"),
            ErrorCode::kUnknownField);
}

TEST(ServeWire, DuplicateAndMissingFieldsAreNamed) {
  EXPECT_EQ(code_of(
                R"({"schema":"rrfd-job-v1","op":"submit","client":"c1",)"
                R"("client":"c2","id":"j1","kind":"sweep","n":6,"k":2,)"
                R"("trials":10,"seed":7})"),
            ErrorCode::kDuplicateField);
  EXPECT_EQ(code_of(
                R"({"schema":"rrfd-job-v1","op":"submit","client":"c1",)"
                R"("id":"j1","kind":"sweep","n":6,"k":2,"trials":10})"),
            ErrorCode::kMissingField);
}

TEST(ServeWire, RangeViolationsAreNamed) {
  for (const char* bad : {
           // n beyond the word-arena bound
           R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
           R"("kind":"sweep","n":65,"k":2,"trials":10,"seed":7})",
           // k > n
           R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
           R"("kind":"sweep","n":4,"k":5,"trials":10,"seed":7})",
           // zero trials
           R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
           R"("kind":"sweep","n":4,"k":2,"trials":0,"seed":7})",
           // negative integer
           R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
           R"("kind":"sweep","n":-4,"k":2,"trials":10,"seed":7})",
           // empty client
           R"({"schema":"rrfd-job-v1","op":"submit","client":"","id":"j",)"
           R"("kind":"sweep","n":4,"k":2,"trials":10,"seed":7})",
           // malformed HO spec, caught at admission
           R"x({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)x"
           R"x("kind":"modelcheck","n":3,"rounds":1,"spec_a":"loss_cap(",)x"
           R"x("spec_b":"mobile(1)"})x",
           // embedded trace that does not parse
           R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
           R"("kind":"replay","protocol":"flood_min","f":2,"trace":"nope"})",
       }) {
    EXPECT_EQ(code_of(bad), ErrorCode::kBadValue) << bad;
  }
}

TEST(ServeWire, IntegerOverflowIsABadValueNotWraparound) {
  EXPECT_EQ(code_of(
                R"({"schema":"rrfd-job-v1","op":"submit","client":"c1",)"
                R"("id":"j1","kind":"sweep","n":6,"k":2,"trials":10,)"
                R"("seed":99999999999999999999999})"),
            ErrorCode::kBadValue);
}

TEST(ServeWire, CanonicalFormNormalizesSpecSugar) {
  const auto canon = [](const std::string& a, const std::string& b) {
    Request req = parse_request(
        R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
        R"("kind":"modelcheck","n":3,"rounds":1,"spec_a":")" +
        a + R"(","spec_b":")" + b + R"("})");
    return req.canonical();
  };
  // Whitespace inside a spec must not split the cache key.
  EXPECT_EQ(canon("loss_cap(1)", "mobile(1)"),
            canon("loss_cap( 1 )", "mobile( 1 )"));
  EXPECT_NE(canon("loss_cap(1)", "mobile(1)"),
            canon("loss_cap(2)", "mobile(1)"));
}

TEST(ServeWire, StatsOpIsMinimal) {
  const Request req = parse_request(R"({"schema":"rrfd-job-v1","op":"stats"})");
  EXPECT_EQ(req.op, Op::kStats);
  EXPECT_EQ(code_of(R"({"schema":"rrfd-job-v1","op":"stats","id":"x"})"),
            ErrorCode::kUnknownField);
}

TEST(ServeWire, EscapedStringsRoundTrip) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
  const Request req = parse_request(
      R"({"schema":"rrfd-job-v1","op":"submit","client":"c\n1","id":"j\"1",)"
      R"("kind":"sweep","n":6,"k":2,"trials":10,"seed":7})");
  EXPECT_EQ(req.client, "c\n1");
  EXPECT_EQ(req.id, "j\"1");
}

TEST(ServeWire, ScannerDecodesEveryEscapeItAccepts) {
  const Request req = parse_request(
      R"({"schema":"rrfd-job-v1","op":"submit","client":"a\\b",)"
      R"("id":"t\tu\u0041\u007e","kind":"sweep","n":6,"k":2,"trials":10,)"
      R"("seed":7})");
  EXPECT_EQ(req.client, "a\\b");
  EXPECT_EQ(req.id, "t\tuA~");
}

TEST(ServeWire, EscapedKeysNameTheirField) {
  // A key is a JSON string like any other: "\u0073chema" names schema.
  const Request req =
      parse_request(R"({"\u0073chema":"rrfd-job-v1","op":"stats"})");
  EXPECT_EQ(req.op, Op::kStats);
  EXPECT_EQ(rejection_of(R"({"schema":"rrfd-job-v1","op":"stats",)"
                         R"("\u006fp":"stats"})"),
            "duplicate_field: field 'op' appears twice");
}

TEST(ServeWire, RejectionDetailsAreGolden) {
  // The detail text of every scanner branch and field check, pinned
  // byte for byte: clients and logs read these, and several are built
  // by cat() from mixed integer types.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"a":"\q"})", "parse_error: col 9: unsupported escape"},
      {R"({"a":"\u0})", "parse_error: col 9: truncated \\u escape"},
      {R"({"a":"\u00zz"})", "parse_error: col 12: bad \\u escape"},
      {R"({"a":"\u00e9"})", "parse_error: col 13: non-ASCII \\u escape"},
      {R"({"a" 1})", "parse_error: col 6: expected ':'"},
      {R"({"a":1 "b":2})", "parse_error: col 8: expected '}'"},
      {R"({"a":1}x})", "parse_error: col 8: trailing characters"},
      {R"({"a":true})", "parse_error: col 6: expected string or integer"},
      {R"({"a":-1})", "bad_value: col 6: negative integer"},
      {R"({"a":18446744073709551616})", "bad_value: col 26: integer overflow"},
      {R"({"schema":1,"op":"stats"})",
       "bad_value: field 'schema' must be a string"},
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"sweep","n":"6","k":2,"trials":10,"seed":7})",
       "bad_value: field 'n' must be an integer"},
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"sweep","n":65,"k":2,"trials":10,"seed":7})",
       "bad_value: field 'n' must be in [1, 64], got 65"},
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"sweep","n":4,"k":5,"trials":10,"seed":7})",
       "bad_value: field 'k' must be in [1, 4], got 5"},
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"sweep","n":4,"k":2,"trials":100001,"seed":7})",
       "bad_value: field 'trials' must be in [1, 100000], got 100001"},
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"replay","protocol":"paxos","trace":"x"})",
       "bad_value: unknown replay protocol 'paxos'"},
      // A spec or an embedded trace that does not parse is named by the
      // parser's own message, never by a source path.
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"modelcheck","n":2,"rounds":1,)"
       R"x("spec_a":"loss_cap(","spec_b":"loss_cap(1)"})x",
       "bad_value: spec 'loss_cap(' does not parse: at offset 9: "
       "expected an integer in \"loss_cap(\""},
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"replay","protocol":"flood_min","f":1,"trace":"{}"})",
       "bad_value: embedded trace does not parse: trace line 1 col 2: "
       "expected '\"'"},
      {R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
       R"("kind":"replay","protocol":"flood_min","f":1,"trace":""})",
       "bad_value: embedded trace does not parse: trace is empty (no schema "
       "line)"},
  };
  for (const auto& [line, detail] : cases) {
    EXPECT_EQ(rejection_of(line), detail) << line;
  }
}

/// The id a rejection of `line` carries.
std::string rejected_id(const std::string& line) {
  try {
    (void)parse_request(line);
  } catch (const WireError& e) {
    return e.id();
  }
  ADD_FAILURE() << "expected a WireError for: " << line;
  return "?";
}

TEST(ServeWire, RejectionCarriesTheIdOnceItIsRead) {
  const std::string head =
      R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j7",)";
  // Rejected after the id was read: the error names the request.
  for (const std::string& rest : {
           std::string(R"("kind":"sweep","n":65,"k":2,"trials":1,"seed":7})"),
           std::string(R"("kind":"sweep","n":4,"k":5,"trials":1,"seed":7})"),
           std::string(R"("kind":"sweep","n":4,"k":2,"trials":1})"),
           std::string(R"("kind":"sweep","n":4,"k":2,"trials":1,"seed":7,)"
                       R"("zzz":1})"),
           std::string(R"("kind":"modelcheck","n":2,"rounds":1,)"
                       R"x("spec_a":"loss_cap(","spec_b":"loss_cap(1)"})x"),
           std::string(R"("kind":"replay","protocol":"paxos","trace":"x"})"),
           std::string(R"("kind":"replay","protocol":"flood_min","f":64,)"
                       R"("trace":"x"})"),
           std::string(R"("kind":"replay","protocol":"flood_min","f":1,)"
                       R"("trace":"{}"})"),
           std::string(R"("kind":"lattice"})"),
       }) {
    EXPECT_EQ(rejected_id(head + rest), "j7") << rest;
  }
  EXPECT_EQ(rejected_id(R"({"schema":"rrfd-job-v1","op":"submit",)"
                        R"("client":"","id":"j8","kind":"sweep"})"),
            "j8");
  // Rejected before a non-empty id was read: no id to name.
  for (const std::string& line : {
           std::string(R"({"schema":"rrfd-job-v1","op":"submit","id":"j9")"),
           std::string(R"({"schema":"rrfd-job-v1","op":"submit","id":"j9",)"
                       R"("id":"j9"})"),
           std::string(R"({"schema":"rrfd-job-v0","op":"submit","id":"j9"})"),
           std::string(R"({"schema":"rrfd-job-v1","op":"cancel","id":"j9"})"),
           std::string(R"({"schema":"rrfd-job-v1","op":"submit","id":"j9",)"
                       R"("kind":"sweep"})"),
           std::string(R"({"schema":"rrfd-job-v1","op":"submit","client":"c",)"
                       R"("kind":"sweep"})"),
           std::string(R"({"schema":"rrfd-job-v1","op":"submit","client":"c",)"
                       R"("id":"","kind":"sweep"})"),
       }) {
    EXPECT_EQ(rejected_id(line), "") << line;
  }
}

TEST(ServeWire, DanglingEscapeIsNamedInAnEmbeddedTrace) {
  // The request scanner cannot reach its own dangling-escape branch: the
  // torn-line guard only lets through text that ends in '}'. An embedded
  // trace line can end in a backslash, and the trace reader names it.
  const std::string rejection = rejection_of(
      R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
      R"("kind":"replay","protocol":"flood_min","f":1,"trace":)"
      R"("{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\\"})");
  EXPECT_EQ(rejection.rfind("bad_value: embedded trace does not parse: ", 0),
            0u)
      << rejection;
  EXPECT_NE(rejection.find("trace line 1 col 40: dangling escape"),
            std::string::npos)
      << rejection;
}

}  // namespace
}  // namespace rrfd::serve
