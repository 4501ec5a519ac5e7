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
#include "util/log.h"

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

TEST(TeeSink, FansOutToBothSinks) {
  RingRecorder ring(8);
  CaptureRecorder capture;
  TeeSink tee(&ring, &capture);
  ScopedTrace attach(&tee);
  record(EventKind::kCrash, Substrate::kRuntime, 2, 7);
  EXPECT_EQ(ring.total(), 1u);
  ASSERT_EQ(capture.events().size(), 1u);
  EXPECT_EQ(capture.events()[0].proc, 2);
}

TEST(TeeSink, ContextJoinsTheNonEmptyContextsOfBothSinks) {
  RingRecorder empty_a(4);
  RingRecorder empty_b(4);
  EXPECT_EQ(TeeSink(&empty_a, &empty_b).context(), "");

  RingRecorder first(4);
  RingRecorder second(4);
  {
    TeeSink tee(&first, &second);
    ScopedTrace attach(&tee);
    record(EventKind::kCrash, Substrate::kRuntime, 2, 7);
  }
  ASSERT_FALSE(first.context().empty());
  EXPECT_EQ(TeeSink(&first, &empty_a).context(), first.context());
  EXPECT_EQ(TeeSink(&empty_a, &second).context(), second.context());
  EXPECT_EQ(TeeSink(&first, &second).context(),
            first.context() + "\n" + second.context());
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
    writer.on_log(1, "line with \"quotes\" and\nnewline");
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
  ASSERT_EQ(trace.logs.size(), 1u);
  EXPECT_EQ(trace.logs[0].first, 1);
  EXPECT_EQ(trace.logs[0].second, "line with \"quotes\" and\nnewline");

  // write_trace(read_trace(x)) is byte-stable.
  std::ostringstream os2;
  write_trace(os2, trace);
  std::istringstream is2(os2.str());
  const Trace again = read_trace(is2);
  EXPECT_EQ(again.events, trace.events);
  EXPECT_EQ(again.logs, trace.logs);
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

TEST(Jsonl, RejectionDetailsAreGolden) {
  // Every scanner branch and grammar check of the reader, pinned byte
  // for byte from "trace line" on. Lines 2+ follow a valid meta line.
  const std::string meta = "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n";
  const std::string torn =
      "\n  (trace line 2 does not end in '}': likely a torn line from a "
      "concurrent/interrupted append)";
  const std::pair<std::string, std::string> cases[] = {
      {meta + R"({"kind":"log","level":0,"msg":"\q"})",
       "trace line 2 col 34: unsupported escape"},
      {meta + R"({"kind":"log","level":0,"msg":"\u0})",
       "trace line 2 col 34: truncated \\u escape"},
      {meta + R"({"kind":"log","level":0,"msg":"\u00zz"})",
       "trace line 2 col 37: bad \\u escape"},
      {meta + R"({"kind":"log","level":0,"msg":"\u00e9"})",
       "trace line 2 col 38: non-ASCII \\u escape"},
      {meta + R"({"kind":"log","level":0,"msg":"m\)",
       "trace line 2 col 34: dangling escape" + torn},
      {meta + R"({"kind","log"})", "trace line 2 col 8: expected ':'"},
      {meta + R"({"kind":"log","level":0,"msg":"m","x":1})",
       "trace line 2 col 34: expected '}'"},
      {meta + R"({"kind":"log","level":0,"msg":"m"}x})",
       "trace line 2 col 35: trailing characters"},
      {meta + R"({"kind":"log","level":0,"msg":"m"}x)",
       "trace line 2 col 35: trailing characters" + torn},
      {meta + R"({"kind":"log","level":"0","msg":"m"})",
       "trace line 2 col 23: expected integer"},
      {meta + R"({"kind":"log","level":-x,"msg":"m"})",
       "trace line 2 col 24: expected integer"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":-1,"b":0})",
       "trace line 2 col 47: expected unsigned integer"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,)"
              R"("a":18446744073709551616,"b":0})",
       "trace line 2 col 67: integer overflow"},
      {meta + R"({kind:"log"})", "trace line 2 col 2: expected '\"'"},
      {meta + R"(["kind":"log"})", "trace line 2 col 1: expected '{'"},
      {R"({"git_rev":"x","schema":"rrfd-trace-v1"})",
       "trace line 1 col 12: first line must carry the schema"},
      {R"({"schema":"rrfd-trace-v2","git_rev":"x"})",
       "trace line 1 col 26: unsupported trace schema 'rrfd-trace-v2'"},
      {R"({"schema":"rrfd-trace-v1","rev":"x"})",
       "trace line 1 col 33: expected git_rev"},
      {R"({"schema":"rrfd-trace-v1","git_rev":"x","y":1})",
       "trace line 1 col 40: expected '}'"},
      {"# comment\n" + std::string(R"({"kind":"log","level":0,"msg":"m"})"),
       "trace line 2 col 2: events before the schema line"},
      {meta + R"({"sub":"engine"})", "trace line 2 col 8: expected kind"},
      {meta + R"({"kind":"log","msg":"m"})",
       "trace line 2 col 21: expected level"},
      {meta + R"({"kind":"log","level":0,"text":"m"})",
       "trace line 2 col 32: expected msg"},
      {meta + R"({"kind":"emit","p":0})", "trace line 2 col 20: expected sub"},
      {meta + R"({"kind":"emit","sub":"engine","r":1})",
       "trace line 2 col 35: expected p"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"a":1})",
       "trace line 2 col 41: expected r"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"b":0})",
       "trace line 2 col 47: expected a"},
      {meta + R"({"kind":"emit","sub":"engine","p":0,"r":1,"a":0,"c":0})",
       "trace line 2 col 53: expected b"},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(located_rejection_of(text + "\n"), expected) << text;
  }
}

TEST(Jsonl, ControlCharactersRoundTrip) {
  // A log message is the one free-text field of a trace: control bytes
  // are written as \u00xx (or \t), quotes and backslashes escaped, and
  // the reader decodes them back to the same bytes.
  const std::string msg = "a\x01 b\tc\"d\\e\x1f";
  std::ostringstream os;
  {
    JsonlWriter writer(os);
    writer.on_log(2, msg);
  }
  const std::string text = os.str();
  EXPECT_NE(text.find(R"({"kind":"log","level":2,"msg":"a\u0001 b\tc\"d\\e\u001f"})"
                      "\n"),
            std::string::npos)
      << text;
  std::istringstream is(text);
  const Trace trace = read_trace(is);
  ASSERT_EQ(trace.logs.size(), 1u);
  EXPECT_EQ(trace.logs[0].second, msg);
}

TEST(Jsonl, InterTokenWhitespaceIsAccepted) {
  // Python's json.dumps writes ": " and ", "; spaces and tabs before a
  // token carry no information. The writer itself never emits them.
  const std::string spaced =
      "{\"schema\": \"rrfd-trace-v1\", \"git_rev\": \"x\"}\n"
      " {\"kind\": \"emit\",\t\"sub\": \"engine\", \"p\": -1, \"r\": 2,"
      " \"a\": 3, \"b\": 4 } \n"
      "{ \"kind\" : \"log\" , \"level\" : 1 , \"msg\" : \"m \" }\n";
  std::istringstream is(spaced);
  const Trace trace = read_trace(is);
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0], make_event(EventKind::kEmit, -1, 2, 3, 4));
  ASSERT_EQ(trace.logs.size(), 1u);
  EXPECT_EQ(trace.logs[0].second, "m ");
  std::ostringstream os;
  write_trace(os, trace);
  EXPECT_EQ(os.str(),
            "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n"
            "{\"kind\":\"emit\",\"sub\":\"engine\",\"p\":-1,\"r\":2,\"a\":3,"
            "\"b\":4}\n"
            "{\"kind\":\"log\",\"level\":1,\"msg\":\"m \"}\n");
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

/// A trace whose second line carries `value` in `field` (p, r or level)
/// and legal values everywhere else.
std::string trace_with(const std::string& field, const std::string& value) {
  const std::string event =
      field == "level"
          ? "{\"kind\":\"log\",\"level\":" + value + ",\"msg\":\"m\"}"
          : "{\"kind\":\"round_start\",\"sub\":\"engine\",\"p\":" +
                (field == "p" ? value : "-1") + ",\"r\":" +
                (field == "r" ? value : "1") + ",\"a\":0,\"b\":0}";
  return "{\"schema\":\"rrfd-trace-v1\",\"git_rev\":\"x\"}\n" + event +
         "\n";
}

TEST(Jsonl, ParserRejectsIntegersOutsideInt32NamingTheField) {
  // p, r and level are stored as int32_t; narrowing 4294967297 to 1
  // would accept a line that cannot round-trip.
  for (const std::string field : {"p", "r", "level"}) {
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
  for (const std::string field : {"p", "r", "level"}) {
    for (const std::string value : {"2147483647", "-2147483648"}) {
      std::istringstream is(trace_with(field, value));
      const Trace trace = read_trace(is);
      const int parsed = field == "level" ? trace.logs.at(0).first
                         : field == "p"   ? trace.events.at(0).proc
                                          : trace.events.at(0).round;
      EXPECT_EQ(parsed, std::stoll(value)) << field;
      std::ostringstream os;
      write_trace(os, trace);
      std::istringstream again(os.str());
      const Trace reread = read_trace(again);
      EXPECT_EQ(reread.events, trace.events) << field << "=" << value;
      EXPECT_EQ(reread.logs, trace.logs) << field << "=" << value;
    }
  }
}

// ---------------------------------------------------------------------------
// Log routing through the trace sink (satellite: injectable log sink)
// ---------------------------------------------------------------------------

TEST(LogForwarding, LogLinesLandInTheTraceWhenForwarded) {
  struct LogCapture final : TraceSink {
    void on_event(const TraceEvent&) override {}
    void on_log(int level, const std::string& msg) override {
      lines.emplace_back(level, msg);
    }
    std::vector<std::pair<int, std::string>> lines;
  };

  const LogLevel saved_level = Log::level();
  Log::set_level(LogLevel::kInfo);
  forward_logs_to_trace();

  LogCapture capture;
  {
    ScopedTrace attach(&capture);
    log_info("routed 42");
    log_debug("suppressed by level");
  }
  Log::set_sink(nullptr);
  Log::set_level(saved_level);

  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_EQ(capture.lines[0].second, "routed 42");
}

}  // namespace
}  // namespace rrfd::trace
