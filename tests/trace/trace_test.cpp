// The flight recorder itself: sinks, the JSONL wire format, and the
// ContractViolation context hook.
#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "util/check.h"

namespace rrfd::trace {
namespace {

TraceEvent make_event(EventKind kind, std::int32_t proc, std::int32_t round,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      Substrate sub = Substrate::kEngine) {
  TraceEvent ev;
  ev.kind = kind;
  ev.substrate = sub;
  ev.proc = proc;
  ev.round = round;
  ev.a = a;
  ev.b = b;
  return ev;
}

// ---------------------------------------------------------------------------
// Tracer + sinks
// ---------------------------------------------------------------------------

TEST(Tracer, OffByDefaultAndRecordIsANoOp) {
  ASSERT_EQ(Tracer::sink(), nullptr);
  EXPECT_FALSE(Tracer::on());
  record(EventKind::kEmit, Substrate::kEngine, 0, 1, 42);  // must not crash
}

TEST(Tracer, ScopedTraceAttachesAndRestores) {
  CaptureRecorder outer;
  CaptureRecorder inner;
  {
    ScopedTrace attach_outer(&outer);
    EXPECT_TRUE(Tracer::on());
    record(EventKind::kEmit, Substrate::kEngine, 0, 1, 1);
    {
      ScopedTrace attach_inner(&inner);
      record(EventKind::kEmit, Substrate::kEngine, 0, 1, 2);
    }
    record(EventKind::kEmit, Substrate::kEngine, 0, 1, 3);
  }
  EXPECT_FALSE(Tracer::on());
  ASSERT_EQ(outer.events().size(), 2u);
  EXPECT_EQ(outer.events()[0].a, 1u);
  EXPECT_EQ(outer.events()[1].a, 3u);
  ASSERT_EQ(inner.events().size(), 1u);
  EXPECT_EQ(inner.events()[0].a, 2u);
}

TEST(RingRecorder, KeepsOnlyTheTailAndCountsDrops) {
  RingRecorder ring(4);
  ScopedTrace attach(&ring);
  for (std::int32_t k = 0; k < 10; ++k) {
    record(EventKind::kDeliver, Substrate::kMsgpass, k, 1);
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<TraceEvent> recent = ring.recent();
  ASSERT_EQ(recent.size(), 4u);
  for (std::size_t k = 0; k < recent.size(); ++k) {
    EXPECT_EQ(recent[k].proc, static_cast<std::int32_t>(6 + k));
  }
}

TEST(TraceEvent, ToStringNamesKindSubstrateAndFields) {
  const std::string s =
      to_string(make_event(EventKind::kAnnounce, 1, 2, 5, 0));
  EXPECT_NE(s.find("engine"), std::string::npos);
  EXPECT_NE(s.find("announce"), std::string::npos);
  EXPECT_NE(s.find("p=1"), std::string::npos);
  EXPECT_NE(s.find("r=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ContractViolation context (the flight-recorder payoff)
// ---------------------------------------------------------------------------

TEST(RingRecorder, ContractViolationCarriesTheEventTail) {
  RingRecorder ring(8);
  ScopedTrace attach(&ring);
  record(EventKind::kRoundStart, Substrate::kMsgpass, 3, 9);
  record(EventKind::kDeliver, Substrate::kMsgpass, 3, 9, 1, 77);
  try {
    RRFD_ENSURE_MSG(false, "synthetic failure");
    FAIL() << "must throw";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("synthetic failure"), std::string::npos);
    EXPECT_NE(what.find("trace tail"), std::string::npos);
    EXPECT_NE(what.find("deliver"), std::string::npos);
    EXPECT_NE(what.find("r=9"), std::string::npos);
    // The tail is context for what(); message() stays the caller's text.
    EXPECT_EQ(violation.message(), "synthetic failure");
  }
}

TEST(RingRecorder, NoContextWhenDetached) {
  {
    RingRecorder ring(8);
    ScopedTrace attach(&ring);
    record(EventKind::kRoundStart, Substrate::kMsgpass, 3, 9);
  }
  try {
    RRFD_ENSURE_MSG(false, "synthetic failure");
    FAIL() << "must throw";
  } catch (const ContractViolation& violation) {
    EXPECT_EQ(std::string(violation.what()).find("trace tail"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// JSONL round-trip
// ---------------------------------------------------------------------------

TEST(Jsonl, WriterThenReaderRoundTripsExactly) {
  std::ostringstream os;
  {
    JsonlWriter writer(os);
    ScopedTrace attach(&writer);
    record(EventKind::kRunBegin, Substrate::kSemisync, 4, 0, 1, 1024);
    record(EventKind::kSchedChoice, Substrate::kSemisync, 2, 0, 3);
    record(EventKind::kDeliver, Substrate::kSemisync, 2, 1, 0,
           static_cast<std::uint64_t>(-7));  // negative payloads survive
    record(EventKind::kRunEnd, Substrate::kSemisync, -1, 17, 1, 0b1010);
  }

  std::istringstream is(os.str());
  const Trace trace = read_trace(is);
  EXPECT_EQ(trace.schema, kTraceSchema);
  EXPECT_FALSE(trace.git_rev.empty());
  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_EQ(trace.events[0],
            make_event(EventKind::kRunBegin, 4, 0, 1, 1024,
                       Substrate::kSemisync));
  EXPECT_EQ(trace.events[2].b, static_cast<std::uint64_t>(-7));
  EXPECT_EQ(trace.events[3].proc, -1);

  // write_trace(read_trace(x)) is byte-stable.
  std::ostringstream os2;
  write_trace(os2, trace);
  std::istringstream is2(os2.str());
  const Trace again = read_trace(is2);
  EXPECT_EQ(again.events, trace.events);
  EXPECT_EQ(again.git_rev, trace.git_rev);
}

TEST(Jsonl, FilesRoundTripAndUnopenablePathsAreNamed) {
  const std::string path = ::testing::TempDir() + "rrfd_trace_file_test.jsonl";
  {
    JsonlWriter writer(path);
    writer.on_event(make_event(EventKind::kDecide, 1, 3, 9));
  }
  const Trace trace = read_trace_file(path);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0], make_event(EventKind::kDecide, 1, 3, 9));
  std::remove(path.c_str());

  const std::string missing =
      ::testing::TempDir() + "rrfd-no-such-dir/trace.jsonl";
  for (const bool write : {true, false}) {
    try {
      if (write) {
        JsonlWriter writer(missing);
      } else {
        (void)read_trace_file(missing);
      }
      FAIL() << "opening " << missing << " must throw";
    } catch (const ContractViolation& violation) {
      EXPECT_NE(std::string(violation.what())
                    .find("cannot open trace file: " + missing),
                std::string::npos)
          << violation.what();
    }
  }
}

TEST(Jsonl, ParserRejectsMissingMetaLine) {
  std::istringstream is(
      "{\"kind\":\"emit\",\"sub\":\"engine\",\"p\":0,\"r\":1,\"a\":0,\"b\":0}\n");
  EXPECT_THROW(read_trace(is), ContractViolation);
}

TEST(Jsonl, ParserRejectsWrongSchema) {
  std::istringstream is("{\"schema\":\"rrfd-trace-v999\",\"git_rev\":\"x\"}\n");
  EXPECT_THROW(read_trace(is), ContractViolation);
}

TEST(Jsonl, ParserRejectsUnknownKind) {
  std::istringstream is(
      "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
      "{\"kind\":\"teleport\",\"sub\":\"engine\",\"p\":0,\"r\":1,\"a\":0,\"b\":0}\n");
  EXPECT_THROW(read_trace(is), ContractViolation);
}

TEST(Jsonl, ParserRejectsTrailingGarbage) {
  std::istringstream is(
      "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
      "{\"kind\":\"emit\",\"sub\":\"engine\",\"p\":0,\"r\":1,\"a\":0,\"b\":0}junk\n");
  EXPECT_THROW(read_trace(is), ContractViolation);
}

TEST(Jsonl, ParserFlagsTornLines) {
  // A truncated record -- the tail of an interrupted or interleaved append
  // -- must fail with a diagnostic that names the likely cause, not just a
  // generic parse error.
  std::istringstream is(
      "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
      "{\"kind\":\"emit\",\"sub\":\"engine\",\"p\":0,\"r\n");
  try {
    read_trace(is);
    FAIL() << "must throw";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("torn line"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(Jsonl, CompleteButMalformedLinesAreNotCalledTorn) {
  std::istringstream is(
      "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
      "{\"kind\":\"emit\",\"sub\":\"engine\",\"p\":zero,\"r\":1,\"a\":0,\"b\":0}\n");
  try {
    read_trace(is);
    FAIL() << "must throw";
  } catch (const ContractViolation& violation) {
    EXPECT_EQ(std::string(violation.what()).find("torn line"),
              std::string::npos);
  }
}

TEST(Jsonl, ParserErrorsNameTheLine) {
  std::istringstream is(
      "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
      "{\"kind\":\"emit\",\"sub\":\"engine\",\"p\":zero,\"r\":1,\"a\":0,\"b\":0}\n");
  try {
    read_trace(is);
    FAIL() << "must throw";
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("line 2"), std::string::npos);
  }
}

/// The message of the ContractViolation that read_trace throws on `text`.
std::string rejection_of(const std::string& text) {
  std::istringstream is(text);
  try {
    read_trace(is);
  } catch (const ContractViolation& violation) {
    return violation.what();
  }
  ADD_FAILURE() << "expected a rejection of: " << text;
  return {};
}

TEST(Jsonl, UnknownNamesAreRejectedAtAFixedColumn) {
  // An unknown event kind is reported just past its value; an unknown
  // substrate at its value's opening quote.
  const std::string meta = "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n";
  const std::string kind = rejection_of(
      meta +
      "{\"kind\":\"bogus\",\"sub\":\"engine\",\"p\":0,\"r\":1,\"a\":0,\"b\":0}\n");
  EXPECT_NE(kind.find("trace line 2 col 16: unknown event kind 'bogus'"),
            std::string::npos)
      << kind;
  const std::string sub = rejection_of(
      meta +
      "{\"kind\":\"emit\",\"sub\":\"bogus\",\"p\":0,\"r\":1,\"a\":0,\"b\":0}\n");
  EXPECT_NE(sub.find("trace line 2 col 22: unknown substrate 'bogus'"),
            std::string::npos)
      << sub;
}

/// The rejection of `text` from its first "trace line " on: the location
/// and detail, plus the torn-line note when one is appended.
std::string located_rejection_of(const std::string& text) {
  const std::string what = rejection_of(text);
  const std::size_t at = what.find("trace line ");
  return at == std::string::npos ? what : what.substr(at);
}

/// The note read_trace appends when trace line `lineno` does not end in
/// '}'.
std::string torn_at(int lineno) {
  return "\n  (trace line " + std::to_string(lineno) +
         " does not end in '}': likely a torn line from a "
         "concurrent/interrupted append)";
}

TEST(Jsonl, RejectionDetailsAreGolden) {
  // Every scanner branch and grammar check of the reader, pinned byte
  // for byte from "trace line" on. Lines 2+ follow a valid meta line.
  const std::string meta = "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n";
  const std::string meta_crlf =
      "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\r\n";
  const std::pair<std::string, std::string> cases[] = {
      {R"({"schema":"rrfd-trace-v1","git_rev":"\q"})",
       "trace line 1 col 40: unsupported escape"},
      {R"({"schema":"rrfd-trace-v1","git_rev":"\u0})",
       "trace line 1 col 40: truncated \\u escape"},
      {R"({"schema":"rrfd-trace-v1","git_rev":"\u00zz"})",
       "trace line 1 col 43: bad \\u escape"},
      {R"({"schema":"rrfd-trace-v1","git_rev":"\u00e9"})",
       "trace line 1 col 44: non-ASCII \\u escape"},
      {R"({"schema":"rrfd-trace-v1","git_rev":"x\)",
       "trace line 1 col 40: dangling escape" + torn_at(1)},
      {meta + R"({"kind","emit"})", "trace line 2 col 8: expected ':'"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":0,"b":0,"x":1})",
       "trace line 2 col 54: expected '}'"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":0,"b":0}x})",
       "trace line 2 col 55: trailing characters"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":0,"b":0}x)",
       "trace line 2 col 55: trailing characters" + torn_at(2)},
      {meta + R"({"kind":"emit","sub":"engine","p":"0","r":1,"a":0,"b":0})",
       "trace line 2 col 35: expected integer"},
      {meta + R"({"kind":"emit","sub":"engine","p":-x,"r":1,"a":0,"b":0})",
       "trace line 2 col 36: expected integer"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":-1,"b":0})",
       "trace line 2 col 47: expected unsigned integer"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,)"
              R"("a":18446744073709551616,"b":0})",
       "trace line 2 col 67: integer overflow"},
      {meta + R"({kind:"emit"})", "trace line 2 col 2: expected '\"'"},
      {meta + R"(["kind":"emit"})", "trace line 2 col 1: expected '{'"},
      {R"({"git_rev":"x","schema":"rrfd-trace-v1"})",
       "trace line 1 col 12: first line must carry the schema"},
      {R"({"schema":"rrfd-trace-v2","git_rev":"x"})",
       "trace line 1 col 26: unsupported trace schema 'rrfd-trace-v2'"},
      {R"({"schema":"rrfd-trace-v1","rev":"x"})",
       "trace line 1 col 33: expected git_rev"},
      {R"({"schema":"rrfd-trace-v1","git_rev":"x","y":1})",
       "trace line 1 col 40: expected '}'"},
      {"# comment\n" +
           std::string(
               R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":0,"b":0})"),
       "trace line 2 col 2: events before the schema line"},
      {meta + R"({"sub":"engine"})", "trace line 2 col 8: expected kind"},
      {meta + R"({"kind":"log","level":0,"msg":"m"})",
       "trace line 2 col 14: unknown event kind 'log'"},
      {meta + R"({"kind":"emit","p":0})", "trace line 2 col 20: expected sub"},
      {meta + R"({"kind":"emit","sub":"engine","r":1})",
       "trace line 2 col 35: expected p"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"a":1})",
       "trace line 2 col 41: expected r"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"b":0})",
       "trace line 2 col 47: expected a"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":0,"c":0})",
       "trace line 2 col 53: expected b"},
      // A CRLF line loses its '\r' before it is scanned: only a missing
      // '}' makes it torn.
      {meta_crlf + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":0,"b":0)"
                   "\r",
       "trace line 2 col 54: expected '}'" + torn_at(2)},
      {meta_crlf +
           R"({"kind":"emit","sub":"engine","p":"0","r":1,"a":0,"b":0})"
           "\r",
       "trace line 2 col 35: expected integer"},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(located_rejection_of(text + "\n"), expected) << text;
  }
}

TEST(Jsonl, ControlCharactersRoundTrip) {
  // git_rev is the one free-text field of a trace: control bytes are
  // written as \u00xx (or \n, \t), quotes and backslashes escaped, and
  // the reader decodes them back to the same bytes.
  Trace trace;
  trace.schema = kTraceSchema;
  trace.git_rev = "a\x01 b\tc\"d\\e\x1f\nf";
  std::ostringstream os;
  write_trace(os, trace);
  const std::string text = os.str();
  EXPECT_EQ(text, R"({"schema":"rrfd-trace-v1","git_rev":)"
                  R"("a\u0001 b\tc\"d\\e\u001f\nf"})"
                  "\n");
  std::istringstream is(text);
  EXPECT_EQ(read_trace(is).git_rev, trace.git_rev);
}

TEST(Jsonl, InterTokenWhitespaceIsAccepted) {
  // Python's json.dumps writes ": " and ", "; spaces and tabs before a
  // token carry no information. The writer itself never emits them.
  const std::string spaced =
      "{ \"schema\" : \"rrfd-trace-v1\" , \"git_rev\" : \"x \" }\n"
      " {\"kind\": \"emit\",\t\"sub\": \"engine\", \"p\": -1, \"r\": 2,"
      " \"a\": 3, \"b\": 4 } \n";
  std::istringstream is(spaced);
  const Trace trace = read_trace(is);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0], make_event(EventKind::kEmit, -1, 2, 3, 4));
  EXPECT_EQ(trace.git_rev, "x ");
  std::ostringstream os;
  write_trace(os, trace);
  EXPECT_EQ(os.str(),
            "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x \"}\n"
            "{\"kind\":\"emit\",\"sub\":\"engine\",\"p\":-1,\"r\":2,\"a\":3,"
            "\"b\":4}\n");
  // Columns still count every byte, the skipped ones included.
  EXPECT_EQ(located_rejection_of(
                "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
                "{\"kind\": \"bogus\", \"sub\": \"engine\"}\n"),
            "trace line 2 col 17: unknown event kind 'bogus'");
  EXPECT_EQ(located_rejection_of(
                "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
                "{\"kind\":\"emit\", \"sub\":  \"bogus\"}\n"),
            "trace line 2 col 25: unknown substrate 'bogus'");
}

TEST(Jsonl, CrlfCopyReadsToTheSameTrace) {
  // A trace that passed through a CRLF tool keeps its records; only the
  // line ending differs.
  std::ostringstream os;
  {
    JsonlWriter writer(os);
    ScopedTrace attach(&writer);
    record(EventKind::kRunBegin, Substrate::kEngine, 3, 0, 2, 1);
    record(EventKind::kAnnounce, Substrate::kEngine, 1, 1, 0b101);
    record(EventKind::kRunEnd, Substrate::kEngine, -1, 2, 1, 0);
  }
  std::string crlf;
  for (const char c : os.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream lf_is(os.str());
  std::istringstream crlf_is(crlf);
  const Trace original = read_trace(lf_is);
  const Trace copy = read_trace(crlf_is);
  ASSERT_EQ(original.events.size(), 3u);
  EXPECT_EQ(copy.schema, original.schema);
  EXPECT_EQ(copy.git_rev, original.git_rev);
  EXPECT_EQ(copy.events, original.events);
}

/// A trace whose second line carries `value` in `field` (p or r) and
/// legal values everywhere else.
std::string trace_with(const std::string& field, const std::string& value) {
  const std::string event =
      "{\"kind\":\"round_start\",\"sub\":\"engine\",\"p\":" +
      (field == "p" ? value : "-1") + ",\"r\":" +
      (field == "r" ? value : "1") + ",\"a\":0,\"b\":0}";
  return "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n" + event +
         "\n";
}

TEST(Jsonl, ParserRejectsIntegersOutsideInt32NamingTheField) {
  // p and r are stored as int32_t; narrowing 4294967297 to 1 would
  // accept a line that cannot round-trip.
  for (const std::string field : {"p", "r"}) {
    for (const std::string value :
         {"2147483648", "-2147483649", "4294967297", "99999999999999999999"}) {
      std::istringstream is(trace_with(field, value));
      try {
        read_trace(is);
        FAIL() << field << "=" << value << " must throw";
      } catch (const ContractViolation& violation) {
        EXPECT_NE(std::string(violation.what())
                      .find("field '" + field + "' is outside int32_t"),
                  std::string::npos)
            << violation.what();
      }
    }
  }
}

TEST(Jsonl, ParserAcceptsInt32BoundsAndRoundTripsThem) {
  for (const std::string field : {"p", "r"}) {
    for (const std::string value : {"2147483647", "-2147483648"}) {
      std::istringstream is(trace_with(field, value));
      const Trace trace = read_trace(is);
      const int parsed = field == "p" ? trace.events.at(0).proc
                                      : trace.events.at(0).round;
      EXPECT_EQ(parsed, std::stoll(value)) << field;
      std::ostringstream os;
      write_trace(os, trace);
      std::istringstream again(os.str());
      const Trace reread = read_trace(again);
      EXPECT_EQ(reread.events, trace.events) << field << "=" << value;
    }
  }
}

}  // namespace
}  // namespace rrfd::trace
