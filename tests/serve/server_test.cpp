// End-to-end job-server contract (DESIGN.md "Job server"): every
// request line gets exactly one ack and every accepted submission
// exactly one terminal line; duplicate submissions -- concurrent or
// late -- cost one execution and receive byte-identical result
// payloads; sheds and wire errors are named, never silent; a server
// stamped with the `unknown` git rev refuses to cache. The stress test
// is the acceptance bar: >=1000 concurrent submissions across client
// threads, fully accounted, with cache dedup equal to the duplicate
// count.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agreement/flood_min.h"
#include "agreement/one_round_kset.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "msgpass/round_sim.h"
#include "serve/wire.h"
#include "trace/trace.h"
#include "util/mutex.h"
#include "util/str.h"
#include "util/thread_annotations.h"

namespace rrfd::serve {
namespace {

bool has(const std::string& line, const std::string& needle) {
  return line.find(needle) != std::string::npos;
}

/// Everything after the request id's closing quote: the per-line bytes
/// that the cache promises are identical across duplicate submissions.
std::string after_id(const std::string& line) {
  const std::string tag = "\"id\":\"";
  const auto pos = line.find(tag);
  EXPECT_NE(pos, std::string::npos) << line;
  const auto end = line.find('"', pos + tag.size());
  return line.substr(end + 1);
}

std::string sweep_line(const std::string& client, const std::string& id,
                       int n, int k, int trials, std::uint64_t seed) {
  return cat(R"({"schema":"rrfd-job-v1","op":"submit","client":")", client,
             R"(","id":")", id, R"(","kind":"sweep","n":)", n, ",\"k\":", k,
             ",\"trials\":", trials, ",\"seed\":", seed, "}");
}

/// Thread-safe line collector; sinks may be invoked from worker threads.
class Collector {
 public:
  Server::LineSink sink() {
    return [this](const std::string& line) {
      MutexLock lock(mu_);
      lines_.push_back(line);
    };
  }

  std::vector<std::string> lines() const {
    MutexLock lock(mu_);
    return lines_;
  }

  std::vector<std::string> lines_for(const std::string& id) const {
    const std::string tag = cat("\"id\":\"", id, "\"");
    std::vector<std::string> out;
    for (const std::string& line : lines()) {
      if (has(line, tag)) out.push_back(line);
    }
    return out;
  }

  /// Row + done payloads for one submission, id envelope stripped.
  std::vector<std::string> payloads_for(const std::string& id) const {
    std::vector<std::string> out;
    for (const std::string& line : lines_for(id)) {
      if (has(line, "\"ev\":\"row\"") || has(line, "\"ev\":\"done\"")) {
        out.push_back(after_id(line));
      }
    }
    return out;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::string> lines_ RRFD_GUARDED_BY(mu_);
};

ServerOptions test_options() {
  ServerOptions options;
  options.git_rev = "test-rev";
  return options;
}

TEST(ServeServer, SweepJobProducesAckRowsAndSealedDone) {
  Server server(test_options());
  Collector out;
  server.submit_line(sweep_line("c1", "j1", 4, 2, 3, 7), out.sink());
  server.drain();
  const auto lines = out.lines_for("j1");
  ASSERT_EQ(lines.size(), 5u);  // ack + 3 rows + done
  EXPECT_TRUE(has(lines[0], "\"ev\":\"accepted\"")) << lines[0];
  EXPECT_TRUE(has(lines[0], "\"source\":\"execute\"")) << lines[0];
  EXPECT_TRUE(has(lines[0], "sweep(n=4,k=2,trials=3)|seed=7|rev=test-rev"))
      << lines[0];
  EXPECT_TRUE(has(lines[1], "\"ev\":\"row\"")) << lines[1];
  EXPECT_TRUE(has(lines[1], "\"trial\":0")) << lines[1];
  EXPECT_TRUE(has(lines[4], "\"ev\":\"done\"")) << lines[4];
  EXPECT_TRUE(has(lines[4], "\"rows\":3")) << lines[4];
  EXPECT_TRUE(has(lines[4], "\"stream_digest\":")) << lines[4];
}

TEST(ServeServer, ResultBytesAreAPureFunctionOfJobSeedRev) {
  // Two independent servers produce byte-identical response lines for
  // the same submission -- the determinism the cache key stands on.
  const auto run_once = [] {
    Server server(test_options());
    Collector out;
    server.submit_line(sweep_line("c1", "j1", 6, 2, 5, 11), out.sink());
    server.drain();
    return out.lines();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ServeServer, ConcurrentDuplicatesExecuteOnceByteIdentically) {
  Server server(test_options());
  Collector out;
  std::thread t1([&server, &out] {
    server.submit_line(sweep_line("c1", "a", 6, 2, 4, 9), out.sink());
  });
  std::thread t2([&server, &out] {
    server.submit_line(sweep_line("c2", "b", 6, 2, 4, 9), out.sink());
  });
  t1.join();
  t2.join();
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache.leads, 1u);
  EXPECT_EQ(stats.cache.hits + stats.cache.joins, 1u);

  const auto pa = out.payloads_for("a");
  const auto pb = out.payloads_for("b");
  ASSERT_EQ(pa.size(), 5u);  // 4 rows + done
  EXPECT_EQ(pa, pb);
  // Each submission's stream starts with its ack and ends with its done.
  for (const char* id : {"a", "b"}) {
    const auto lines = out.lines_for(id);
    ASSERT_EQ(lines.size(), 6u) << id;
    EXPECT_TRUE(has(lines.front(), "\"ev\":\"accepted\"")) << lines.front();
    EXPECT_TRUE(has(lines.back(), "\"ev\":\"done\"")) << lines.back();
  }
}

TEST(ServeServer, LateDuplicateIsACacheHit) {
  Server server(test_options());
  Collector out;
  server.submit_line(sweep_line("c1", "first", 4, 2, 2, 3), out.sink());
  server.drain();
  server.submit_line(sweep_line("c2", "again", 4, 2, 2, 3), out.sink());
  const auto lines = out.lines_for("again");
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(has(lines.front(), "\"source\":\"cache\"")) << lines.front();
  EXPECT_EQ(out.payloads_for("first"), out.payloads_for("again"));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache.hits, 1u);
}

TEST(ServeServer, UnknownRevNeverCaches) {
  // A binary built outside git stamps "unknown" (trace::build_git_rev's
  // fallback); two different builds would share every cache key, so the
  // server must execute every submission and store nothing.
  ServerOptions options;
  options.git_rev = kUnknownRev;
  Server server(std::move(options));
  Collector out;
  server.submit_line(sweep_line("c1", "x1", 4, 2, 2, 3), out.sink());
  server.drain();
  server.submit_line(sweep_line("c1", "x2", 4, 2, 2, 3), out.sink());
  server.drain();
  for (const char* id : {"x1", "x2"}) {
    const auto lines = out.lines_for(id);
    ASSERT_FALSE(lines.empty());
    EXPECT_TRUE(has(lines.front(), "\"source\":\"uncached\"")) << lines.front();
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.executed, 2u);  // the duplicate was re-executed
  EXPECT_EQ(stats.cache.bypasses, 2u);
  EXPECT_EQ(stats.cache.leads, 0u);
  EXPECT_EQ(stats.cache.hits, 0u);
  // Identical bytes all the same: determinism does not depend on caching.
  EXPECT_EQ(out.payloads_for("x1"), out.payloads_for("x2"));
}

TEST(ServeServer, MalformedLinesAreNamedErrorsNotSilentDrops) {
  Server server(test_options());
  Collector out;
  server.submit_line(R"({"schema":"rrfd-job-v1","op":"submit")", out.sink());
  server.submit_line(R"({"schema":"rrfd-job-v0","op":"stats"})", out.sink());
  server.submit_line(
      R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"j",)"
      R"("kind":"sweep","n":4,"k":2,"trials":1,"seed":1,"zzz":3})",
      out.sink());
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(has(lines[0], "\"ev\":\"error\"")) << lines[0];
  EXPECT_TRUE(has(lines[0], "\"code\":\"torn_line\"")) << lines[0];
  EXPECT_TRUE(has(lines[1], "\"code\":\"bad_version\"")) << lines[1];
  EXPECT_TRUE(has(lines[2], "\"code\":\"unknown_field\"")) << lines[2];
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.wire_errors, 3u);
  EXPECT_EQ(stats.executed, 0u);
}

TEST(ServeServer, QueueFullShedIsNamedAndLeavesNoWaiterHanging) {
  ServerOptions options;
  options.workers = 1;
  options.queue.depth = 1;
  options.git_rev = "test-rev";
  Server server(std::move(options));

  // Pin the single worker inside job a's delivery so the queue's one
  // slot is observably occupied by job b when job c arrives.
  Mutex mu;
  CondVar cv;
  bool worker_pinned = false;
  bool release = false;
  std::vector<std::string> a_lines;
  const auto pinning_sink = [&](const std::string& line) {
    MutexLock lock(mu);
    a_lines.push_back(line);
    if (has(line, "\"ev\":\"row\"") && !worker_pinned) {
      worker_pinned = true;
      cv.notify_all();
      while (!release) cv.wait(mu);
    }
  };
  server.submit_line(sweep_line("c", "a", 4, 2, 1, 1), pinning_sink);
  {
    MutexLock lock(mu);
    while (!worker_pinned) cv.wait(mu);
  }

  Collector out;
  server.submit_line(sweep_line("c", "b", 4, 2, 1, 2), out.sink());
  server.submit_line(sweep_line("c", "shed-me", 4, 2, 1, 3), out.sink());
  const auto shed = out.lines_for("shed-me");
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_TRUE(has(shed[0], "\"ev\":\"shed\"")) << shed[0];
  EXPECT_TRUE(has(shed[0], "\"reason\":\"queue_full\"")) << shed[0];

  {
    MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();
  server.drain();
  // The accepted job behind the shed one still completed.
  const auto b_lines = out.lines_for("b");
  ASSERT_FALSE(b_lines.empty());
  EXPECT_TRUE(has(b_lines.back(), "\"ev\":\"done\"")) << b_lines.back();
  EXPECT_EQ(server.stats().queue.shed_queue_full, 1u);
}

TEST(ServeServer, ClientCapShedsOnlyTheNoisyTenant) {
  ServerOptions options;
  options.workers = 1;
  options.queue.depth = 64;
  options.queue.per_client = 1;
  options.git_rev = "test-rev";
  Server server(std::move(options));

  Mutex mu;
  CondVar cv;
  bool worker_pinned = false;
  bool release = false;
  std::vector<std::string> a_lines;
  const auto pinning_sink = [&](const std::string& line) {
    MutexLock lock(mu);
    a_lines.push_back(line);
    if (has(line, "\"ev\":\"row\"") && !worker_pinned) {
      worker_pinned = true;
      cv.notify_all();
      while (!release) cv.wait(mu);
    }
  };
  server.submit_line(sweep_line("noisy", "a", 4, 2, 1, 1), pinning_sink);
  {
    MutexLock lock(mu);
    while (!worker_pinned) cv.wait(mu);
  }

  Collector out;
  // a was popped (its cap slot released); b occupies noisy's one slot.
  server.submit_line(sweep_line("noisy", "b", 4, 2, 1, 2), out.sink());
  server.submit_line(sweep_line("noisy", "c", 4, 2, 1, 3), out.sink());
  server.submit_line(sweep_line("quiet", "d", 4, 2, 1, 4), out.sink());
  const auto shed = out.lines_for("c");
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_TRUE(has(shed[0], "\"reason\":\"client_cap\"")) << shed[0];
  ASSERT_FALSE(out.lines_for("d").empty());
  EXPECT_TRUE(has(out.lines_for("d").front(), "\"ev\":\"accepted\""));

  {
    MutexLock lock(mu);
    release = true;
  }
  cv.notify_all();
  server.drain();
  EXPECT_TRUE(has(out.lines_for("b").back(), "\"ev\":\"done\""));
  EXPECT_TRUE(has(out.lines_for("d").back(), "\"ev\":\"done\""));
  EXPECT_EQ(server.stats().queue.shed_client_cap, 1u);
}

TEST(ServeServer, ModelcheckJobReportsBothDirections) {
  Server server(test_options());
  Collector out;
  server.submit_line(
      R"x({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"m1",)x"
      R"x("kind":"modelcheck","n":3,"rounds":1,"spec_a":"loss_cap(1)",)x"
      R"x("spec_b":"loss_cap( 1 )"})x",
      out.sink());
  server.drain();
  const auto lines = out.lines_for("m1");
  ASSERT_EQ(lines.size(), 4u);  // ack + forward + backward + done
  EXPECT_TRUE(has(lines[1], "\"dir\":\"forward\"")) << lines[1];
  EXPECT_TRUE(has(lines[1], "\"holds\":true")) << lines[1];
  EXPECT_TRUE(has(lines[2], "\"dir\":\"backward\"")) << lines[2];
  EXPECT_TRUE(has(lines[3], "\"equivalent\":true")) << lines[3];
}

TEST(ServeServer, ReplayJobReExecutesByteIdentically) {
  // Record an engine run the way the flight_recorder example does, ship
  // it through the wire protocol, and let the server re-execute it.
  constexpr int kN = 4;
  constexpr int kF = 1;
  trace::CaptureRecorder capture;
  {
    trace::ScopedTrace attach(&capture);
    std::vector<agreement::FloodMin> ps;
    for (int i = 0; i < kN; ++i) ps.emplace_back(i * 3 + 1, kF + 1);
    core::CrashAdversary adversary(kN, kF, /*seed=*/7);
    core::run_rounds(ps, adversary);
  }
  trace::Trace recorded;
  recorded.schema = trace::kTraceSchema;
  recorded.git_rev = "recorder-rev";
  recorded.events = capture.events();
  std::ostringstream os;
  trace::write_trace(os, recorded);

  Server server(test_options());
  Collector out;
  server.submit_line(
      cat(R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"r1",)",
          R"("kind":"replay","protocol":"flood_min","f":)", kF,
          R"(,"trace":")", json_escape(os.str()), R"("})"),
      out.sink());
  server.drain();
  const auto lines = out.lines_for("r1");
  ASSERT_EQ(lines.size(), 3u);  // ack + row + done
  EXPECT_TRUE(has(lines[1], "\"byte_identical\":true")) << lines[1];
  EXPECT_TRUE(has(lines[1], "\"trace_rev\":\"recorder-rev\"")) << lines[1];
  EXPECT_TRUE(has(lines[2], "\"ev\":\"done\"")) << lines[2];
}

/// A recorded trace rendered as JSONL, stamped with `rev`.
std::string trace_text(const std::vector<trace::TraceEvent>& events,
                       const std::string& rev) {
  trace::Trace recorded;
  recorded.schema = trace::kTraceSchema;
  recorded.git_rev = rev;
  recorded.events = events;
  std::ostringstream os;
  trace::write_trace(os, recorded);
  return os.str();
}

std::string replay_line(const std::string& id, const std::string& protocol,
                        const std::string& trace_jsonl) {
  return cat(R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":")",
             id, R"(","kind":"replay","protocol":")", protocol, R"(",)",
             protocol == "kset" ? R"("k":2)" : R"("f":1)", R"(,"trace":")",
             json_escape(trace_jsonl), R"("})");
}

TEST(ServeServer, KSetReplayReExecutesByteIdentically) {
  // An engine run of the Theorem 3.1 one-round k-set protocol under a
  // k-uncertainty adversary, replayed through the `kset` protocol.
  constexpr int kN = 5;
  trace::CaptureRecorder capture;
  {
    trace::ScopedTrace attach(&capture);
    std::vector<agreement::OneRoundKSet> ps;
    for (int i = 0; i < kN; ++i) ps.emplace_back(i + 1);
    core::KUncertaintyAdversary adversary(kN, /*k=*/2, /*seed=*/11);
    core::run_rounds(ps, adversary);
  }
  Server server(test_options());
  Collector out;
  server.submit_line(
      replay_line("k1", "kset", trace_text(capture.events(), "kset-rev")),
      out.sink());
  server.drain();
  const auto lines = out.lines_for("k1");
  ASSERT_EQ(lines.size(), 3u);  // ack + row + done
  EXPECT_TRUE(has(lines[1], "\"byte_identical\":true")) << lines[1];
  EXPECT_TRUE(has(lines[1], "\"trace_rev\":\"kset-rev\"")) << lines[1];
  EXPECT_TRUE(has(lines[2], "\"ev\":\"done\"")) << lines[2];
}

TEST(ServeServer, ReplayUnderTheWrongProtocolIsANamedDivergence) {
  // A flood-min engine run re-executed as one-round k-set agreement: the
  // scripted adversary replays, but the emitted values differ.
  constexpr int kN = 4;
  trace::CaptureRecorder capture;
  {
    trace::ScopedTrace attach(&capture);
    std::vector<agreement::FloodMin> ps;
    for (int i = 0; i < kN; ++i) ps.emplace_back(i * 3 + 1, /*rounds=*/2);
    core::CrashAdversary adversary(kN, /*f=*/1, /*seed=*/7);
    core::run_rounds(ps, adversary);
  }
  Server server(test_options());
  Collector out;
  server.submit_line(
      replay_line("d1", "kset", trace_text(capture.events(), "fm-rev")),
      out.sink());
  server.drain();
  const auto lines = out.lines_for("d1");
  ASSERT_EQ(lines.size(), 2u);  // ack + error
  EXPECT_TRUE(has(lines[0], "\"ev\":\"accepted\"")) << lines[0];
  EXPECT_TRUE(has(lines[1], "\"code\":\"replay_divergence\"")) << lines[1];
  EXPECT_TRUE(has(lines[1], "replay diverged at event #")) << lines[1];
}

TEST(ServeServer, ModelcheckThatThrowsIsANamedExecError) {
  // The spec parses, so admission accepts it; it names process 2, which
  // an n = 2 system lacks, so compiling it for the check throws.
  Server server(test_options());
  Collector out;
  server.submit_line(
      R"x({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"e1",)x"
      R"x("kind":"modelcheck","n":2,"rounds":1,)x"
      R"x("spec_a":"partition(src={0},dst={1,2})","spec_b":"loss_cap(1)"})x",
      out.sink());
  server.drain();
  const auto lines = out.lines_for("e1");
  ASSERT_EQ(lines.size(), 2u);  // ack + error
  EXPECT_TRUE(has(lines[0], "\"ev\":\"accepted\"")) << lines[0];
  // The detail is the check's own message: no source path, no line.
  EXPECT_TRUE(has(lines[1], "\"code\":\"exec_error\","
                            "\"detail\":\"spec names a process id >= n\"}"))
      << lines[1];
}

TEST(ServeServer, UnknownReplayProtocolIsANamedWireError) {
  Server server(test_options());
  Collector out;
  server.submit_line(replay_line("u1", "paxos", "x"), out.sink());
  const auto lines = out.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has(lines[0], "\"ev\":\"error\"")) << lines[0];
  EXPECT_TRUE(has(lines[0], "\"code\":\"bad_value\"")) << lines[0];
  EXPECT_TRUE(
      has(lines[0], "\"detail\":\"unknown replay protocol 'paxos'\""))
      << lines[0];
  EXPECT_EQ(server.stats().wire_errors, 1u);
}

TEST(ServeServer, WireErrorsEchoTheIdOnceItIsRead) {
  // Golden error lines. A rejection after the parser has read a
  // non-empty id names that request; one before it carries "id":"".
  Server server(test_options());
  Collector out;
  const std::string head =
      R"({"schema":"rrfd-job-v1","op":"submit","client":"c","id":"w1",)";
  server.submit_line(
      head + R"("kind":"sweep","n":65,"k":2,"trials":1,"seed":7})",
      out.sink());
  server.submit_line(head + R"x("kind":"modelcheck","n":2,"rounds":1,)x"
                            R"x("spec_a":"loss_cap(","spec_b":"loss_cap(1)"})x",
                     out.sink());
  server.submit_line(replay_line("w3", "flood_min", "{}"), out.sink());
  server.submit_line(replay_line("w4", "paxos", "x"), out.sink());
  server.submit_line(R"({"schema":"rrfd-job-v1","op":"submit","id":"w5")",
                     out.sink());
  server.submit_line(
      R"({"schema":"rrfd-job-v1","op":"submit","id":"w6","kind":"sweep"})",
      out.sink());
  const std::vector<std::string> expected = {
      R"({"schema":"rrfd-job-v1","ev":"error","id":"w1","code":"bad_value",)"
      R"("detail":"field 'n' must be in [1, 64], got 65"})",
      R"({"schema":"rrfd-job-v1","ev":"error","id":"w1","code":"bad_value",)"
      R"("detail":"spec 'loss_cap(' does not parse: at offset 9: expected )"
      R"(an integer in \"loss_cap(\""})",
      R"({"schema":"rrfd-job-v1","ev":"error","id":"w3","code":"bad_value",)"
      R"("detail":"embedded trace does not parse: trace line 1 col 2: )"
      R"(expected '\"'"})",
      R"({"schema":"rrfd-job-v1","ev":"error","id":"w4","code":"bad_value",)"
      R"("detail":"unknown replay protocol 'paxos'"})",
      R"({"schema":"rrfd-job-v1","ev":"error","id":"","code":"torn_line",)"
      R"("detail":"line does not end in '}': likely a torn line from a )"
      R"(concurrent/interrupted append"})",
      R"({"schema":"rrfd-job-v1","ev":"error","id":"",)"
      R"("code":"missing_field","detail":"required field 'client' is )"
      R"(absent"})",
  };
  EXPECT_EQ(out.lines(), expected);
  EXPECT_EQ(server.stats().wire_errors, 6u);
}

/// Floods nothing: every process broadcasts 0 and ignores what arrives.
class SilentRounds final : public msgpass::RoundProtocol {
 public:
  std::uint64_t emit(core::ProcId, core::Round) override { return 0; }
  void deliver(core::ProcId, core::Round, core::ProcId,
               std::uint64_t) override {}
  void round_complete(core::ProcId, core::Round,
                      const core::ProcessSet&) override {}
};

TEST(ServeServer, MsgpassTraceReplayFailsAsUnsupportedSubstrate) {
  trace::CaptureRecorder capture;
  {
    trace::ScopedTrace attach(&capture);
    SilentRounds proto;
    msgpass::RoundEnforcedSim sim(/*n=*/3, /*f=*/0, /*seed=*/5);
    sim.run(proto, /*rounds=*/2);
  }
  Server server(test_options());
  Collector out;
  server.submit_line(
      replay_line("s1", "flood_min", trace_text(capture.events(), "mp-rev")),
      out.sink());
  server.drain();
  const auto lines = out.lines_for("s1");
  ASSERT_EQ(lines.size(), 2u);  // ack + error
  EXPECT_TRUE(has(lines[0], "\"ev\":\"accepted\"")) << lines[0];
  EXPECT_TRUE(has(lines[1], "\"code\":\"unsupported_substrate\"")) << lines[1];
  EXPECT_TRUE(
      has(lines[1], "\"detail\":\"replay serves engine traces; got msgpass\""))
      << lines[1];
}

// ---------------------------------------------------------------------------
// Replays and sweeps in flight together. Replays hold the tracer's
// shared_mutex exclusively and sweeps share it, so four workers running
// both kinds at once take it both ways under contention. This suite runs
// under TSan in CI.

TEST(ServeServer, ReplaysAndSweepsInFlightTogetherAreRaceFree) {
  // A recorded trace for the replay jobs (exclusive tracer path); same
  // recipe as ReplayJobReExecutesByteIdentically above.
  trace::CaptureRecorder capture;
  {
    trace::ScopedTrace attach(&capture);
    std::vector<agreement::FloodMin> ps;
    for (int i = 0; i < 4; ++i) ps.emplace_back(i * 3 + 1, 2);
    core::CrashAdversary adversary(4, 1, /*seed=*/7);
    core::run_rounds(ps, adversary);
  }
  trace::Trace recorded;
  recorded.schema = trace::kTraceSchema;
  recorded.git_rev = "recorder-rev";
  recorded.events = capture.events();
  std::ostringstream os;
  trace::write_trace(os, recorded);
  const std::string replay_payload = json_escape(os.str());

  ServerOptions options = test_options();
  options.workers = 4;
  options.queue.depth = 256;
  options.queue.per_client = 256;
  Server server(options);
  Collector out;
  for (int i = 0; i < 24; ++i) {
    server.submit_line(sweep_line("c", cat("churn-s", i), 4, 1, 2,
                                  100 + static_cast<std::uint64_t>(i)),
                       out.sink());
    if (i % 6 == 0) {
      server.submit_line(
          cat(R"({"schema":"rrfd-job-v1","op":"submit","client":"c",)",
              R"("id":"churn-r)", i,
              R"(","kind":"replay","protocol":"flood_min","f":1,)",
              R"("trace":")", replay_payload, R"("})"),
          out.sink());
    }
  }
  server.drain();

  // Full accounting survives the churn: one ack and one terminal line
  // per submission.
  for (int i = 0; i < 24; ++i) {
    const auto lines = out.lines_for(cat("churn-s", i));
    ASSERT_GE(lines.size(), 2u) << i;
    EXPECT_TRUE(has(lines.front(), "\"ev\":\"accepted\"")) << lines.front();
    EXPECT_TRUE(has(lines.back(), "\"ev\":\"done\"")) << lines.back();
  }
  for (int i = 0; i < 24; i += 6) {
    const auto lines = out.lines_for(cat("churn-r", i));
    ASSERT_GE(lines.size(), 2u) << i;
    EXPECT_TRUE(has(lines.front(), "\"ev\":\"accepted\"")) << lines.front();
    EXPECT_TRUE(has(lines.back(), "\"ev\":\"done\"")) << lines.back();
  }
}

TEST(ServeServer, StatsOpAnswersSynchronously) {
  Server server(test_options());
  Collector out;
  server.submit_line(sweep_line("c1", "j1", 4, 2, 1, 1), out.sink());
  server.drain();
  server.submit_line(R"({"schema":"rrfd-job-v1","op":"stats"})", out.sink());
  const auto lines = out.lines();
  ASSERT_FALSE(lines.empty());
  const std::string& stats_line = lines.back();
  EXPECT_TRUE(has(stats_line, "\"ev\":\"stats\"")) << stats_line;
  EXPECT_TRUE(has(stats_line, "\"executed\":1")) << stats_line;
  EXPECT_TRUE(has(stats_line, "\"rev\":\"test-rev\"")) << stats_line;
}

TEST(ServeServer, ThousandConcurrentJobsAccountFullyAndDedup) {
  // The acceptance stress: >=1000 concurrent submissions across client
  // threads drawn from a small pool of distinct jobs. Every submission
  // is acked exactly once and terminated exactly once (nothing lost
  // silently), the distinct jobs execute exactly once each, the cache
  // absorbs every duplicate, and duplicates receive byte-identical
  // payload streams.
  constexpr int kClients = 8;
  constexpr int kPerClient = 125;
  constexpr int kDistinct = 25;

  ServerOptions options;
  options.workers = 4;
  options.queue.depth = 2048;     // deep enough that nothing sheds:
  options.queue.per_client = 2048;  // the assertions below are exact
  options.git_rev = "test-rev";
  Server server(std::move(options));

  Collector out;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &out, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int job = (c * kPerClient + i) % kDistinct;
        server.submit_line(
            sweep_line(cat("client-", c), cat("t", c, "-", i), 4, 2, 2,
                       static_cast<std::uint64_t>(job)),
            out.sink());
      }
    });
  }
  for (auto& t : clients) t.join();
  server.drain();

  const ServerStats stats = server.stats();
  constexpr auto kTotal =
      static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(stats.requests, kTotal);
  EXPECT_EQ(stats.wire_errors, 0u);
  EXPECT_EQ(stats.executed, kDistinct);
  EXPECT_EQ(stats.cache.leads, kDistinct);
  // The dedup ledger: every duplicate is a hit or a join, nothing else.
  EXPECT_EQ(stats.cache.hits + stats.cache.joins, kTotal - kDistinct);
  EXPECT_EQ(stats.cache.failures, 0u);
  EXPECT_EQ(stats.queue.accepted, kDistinct);
  EXPECT_EQ(stats.queue.shed_queue_full, 0u);
  EXPECT_EQ(stats.queue.shed_client_cap, 0u);

  // Per-submission accounting and byte-identity across duplicates.
  std::map<int, std::vector<std::string>> stream_by_job;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      const std::string id = cat("t", c, "-", i);
      const auto lines = out.lines_for(id);
      ASSERT_FALSE(lines.empty()) << id;
      EXPECT_TRUE(has(lines.front(), "\"ev\":\"accepted\"")) << lines.front();
      int acks = 0;
      int terminals = 0;
      for (const std::string& line : lines) {
        if (has(line, "\"ev\":\"accepted\"") || has(line, "\"ev\":\"shed\"")) {
          ++acks;
        }
        if (has(line, "\"ev\":\"done\"") || has(line, "\"ev\":\"error\"")) {
          ++terminals;
        }
      }
      EXPECT_EQ(acks, 1) << id;
      EXPECT_EQ(terminals, 1) << id;
      EXPECT_TRUE(has(lines.back(), "\"ev\":\"done\"")) << lines.back();

      const int job = (c * kPerClient + i) % kDistinct;
      const auto payloads = out.payloads_for(id);
      const auto [it, inserted] = stream_by_job.emplace(job, payloads);
      if (!inserted) {
        EXPECT_EQ(it->second, payloads) << id;
      }
    }
  }
  EXPECT_EQ(stream_by_job.size(), static_cast<std::size_t>(kDistinct));
}

}  // namespace
}  // namespace rrfd::serve
