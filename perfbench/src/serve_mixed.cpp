// serve-mixed: a closed loop of 4 clients driving one in-process
// serve::Server through submit_line, as sweep_serve does minus the
// stdin/stdout framing. About 60% sweep jobs, 30% small modelchecks over
// ho::standard_catalog() specs and 10% replays of engine traces recorded
// during setup; about a quarter of submissions repeat an earlier
// (job, seed), so cache hits and joins run beside executions.
//
// A cycle gets a fresh server (workers = 2, sweep_threads = 2, a fixed
// git rev), so its cache outcomes repeat exactly. The traced pass also
// makes each distinct job's layer calls again itself, the way
// serve/exec.cpp makes them, and holds their digests to the server's.
#include <malloc.h>

#include <condition_variable>
#include <optional>
#include <sstream>
#include <thread>

#include "agreement/flood_min.h"
#include "agreement/one_round_kset.h"
#include "core/adversaries.h"
#include "core/engine.h"
#include "core/submodel.h"
#include "harness.h"
#include "ho/catalog.h"
#include "ho/compile.h"
#include "serve/exec.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "sweep/sweep.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "util/str.h"

namespace perfbench {

namespace {

using namespace rrfd;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kSweepThreads = 2;
// 400 sweeps, 200 modelchecks and 64 replays are 664 distinct jobs; with
// a quarter repeats that makes 885 ops a cycle: too few for ten beyond
// p99, so the tail is p90.
constexpr int kSweeps = 400;
constexpr int kReplays = 64;
/// Stamped into cache keys and traces, so caching behaves the same on
/// every commit and in a build outside git.
constexpr const char* kRev = "perfbench";

/// FNV-1a fold of one engine run's decisions, as serve/exec.cpp does.
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

std::uint64_t rows_digest(const std::vector<std::string>& rows) {
  std::string all;
  for (const std::string& row : rows) {
    all += row;
    all += '\n';
  }
  return serve::fnv1a(all);
}

/// The unsigned integer after `"<field>":` in a JSON line, if any.
std::optional<std::uint64_t> json_uint(const std::string& line,
                                       const std::string& field) {
  const std::string key = "\"" + field + "\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + key.size();
  std::uint64_t v = 0;
  bool any = false;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
    any = true;
  }
  if (!any) return std::nullopt;
  return v;
}

std::string head(const char* ev, const std::string& id) {
  return cat("{\"schema\":\"", serve::kJobSchema, "\",\"ev\":\"", ev,
             "\",\"id\":\"", id, "\"");
}

/// Span name of a direct serve::execute call, by job kind.
const char* exec_span_name(serve::JobKind kind) {
  switch (kind) {
    case serve::JobKind::kSweep: return "serve.execute.sweep";
    case serve::JobKind::kModelCheck: return "serve.execute.modelcheck";
    case serve::JobKind::kReplay: return "serve.execute.replay";
  }
  return "serve.execute";
}

/// One distinct (job, seed) of the cycle and its reference result.
struct Distinct {
  std::string fields;  ///< the request after client and id
  serve::Request req;
  std::uint64_t digest = 0;  ///< stream_digest of a direct serve::execute
  std::size_t rows = 0;
  int first_op = 0;
};

/// Lines one client received for its outstanding job.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> lines;
  bool terminal = false;
};

class ServeMixed final : public Workload {
 public:
  void setup(std::uint64_t seed) override;
  void run_cycle(Pass& pass) override;
  void layer_metrics(const Pass& pass, const std::vector<Span>& spans,
                     Metrics& out) const override;
  double tail_q() const override { return 0.9; }

 private:
  /// Checks one op's response lines; returns "" or what was wrong.
  std::string check_op(int op, const std::vector<std::string>& lines,
                       std::string* source) const;
  void replicate(Pass& pass, const Distinct& d, std::int64_t op);

  std::vector<Distinct> distinct_;
  std::vector<int> op_distinct_;  ///< op index -> distinct index
  // Traced-pass samples that spans alone do not carry.
  std::vector<double> queue_wait_ms_;
};

void ServeMixed::setup(std::uint64_t seed) {
  distinct_.clear();
  op_distinct_.clear();
  Rng rng(seed ^ 0x5e7e11ed5e7e11edULL);

  // The job mix is stratified so that the work in a cycle hardly depends
  // on the seed: the seed picks job seeds, traces and the order.
  std::vector<std::string> jobs;
  for (int i = 0; i < kSweeps; ++i) {
    jobs.push_back(cat("\"kind\":\"sweep\",\"n\":", 4 + i % 13, ",\"k\":",
                       1 + i % 3, ",\"trials\":", 50 + 9 * (i % 51),
                       ",\"seed\":", rng()));
  }
  // Every ordered pair of ho::standard_catalog() specs at 1 and 2 rounds.
  const std::vector<ho::DerivedModel> catalog = ho::standard_catalog();
  for (const ho::DerivedModel& a : catalog) {
    for (const ho::DerivedModel& b : catalog) {
      for (int rounds = 1; rounds <= 2; ++rounds) {
        jobs.push_back(cat("\"kind\":\"modelcheck\",\"spec_a\":\"", a.spec,
                           "\",\"spec_b\":\"", b.spec,
                           "\",\"n\":3,\"rounds\":", rounds));
      }
    }
  }
  // Engine traces for the replay jobs, recorded the way the
  // flight_recorder example does.
  for (int t = 0; t < kReplays; ++t) {
    const int n = 4 + t % 5;
    const int f = 1 + t % 2;
    trace::CaptureRecorder capture;
    {
      trace::ScopedTrace attach(&capture);
      std::vector<agreement::FloodMin> ps;
      for (int i = 0; i < n; ++i) ps.emplace_back(i * 3 + 1, f + 1);
      core::CrashAdversary adversary(n, f, rng());
      core::run_rounds(ps, adversary);
    }
    trace::Trace recorded;
    recorded.schema = trace::kTraceSchema;
    recorded.git_rev = kRev;
    recorded.events = capture.events();
    std::ostringstream os;
    trace::write_trace(os, recorded);
    jobs.push_back(cat("\"kind\":\"replay\",\"protocol\":\"flood_min\",\"f\":",
                       f, ",\"trace\":\"", serve::json_escape(os.str()), "\""));
  }
  rng.shuffle(jobs);

  // A quarter of all submissions repeat an earlier one.
  std::size_t repeats = jobs.size() / 3;
  std::size_t next = 0;
  std::map<std::string, int> by_key;
  while (next < jobs.size() || repeats > 0) {
    const std::size_t left = jobs.size() - next + repeats;
    if (!op_distinct_.empty() && rng.below(left) < repeats) {
      op_distinct_.push_back(op_distinct_[rng.below(op_distinct_.size())]);
      --repeats;
      continue;
    }
    std::string& fields = jobs[next++];
    serve::Request req = serve::parse_request(
        cat("{\"schema\":\"", serve::kJobSchema,
            "\",\"op\":\"submit\",\"client\":\"ref\",\"id\":\"ref\",", fields,
            "}"));
    const std::string key = cat(req.canonical(), "|seed=", req.seed);
    const auto [it, fresh] =
        by_key.emplace(key, static_cast<int>(distinct_.size()));
    if (fresh) {
      Distinct d;
      d.fields = std::move(fields);
      d.req = std::move(req);
      d.first_op = static_cast<int>(op_distinct_.size());
      distinct_.push_back(std::move(d));
    }
    op_distinct_.push_back(it->second);
  }

  // Reference results: a direct serve::execute of every distinct job.
  for (Distinct& d : distinct_) {
    const serve::JobResult r = serve::execute(d.req, kSweepThreads);
    RRFD_REQUIRE_MSG(!r.failed, "reference job failed: " + r.error_detail);
    d.rows = r.rows.size();
    d.digest = json_uint(r.done, "stream_digest").value_or(0);
  }
}

std::string ServeMixed::check_op(int op, const std::vector<std::string>& lines,
                                 std::string* source) const {
  const Distinct& d =
      distinct_[static_cast<std::size_t>(op_distinct_[static_cast<std::size_t>(op)])];
  const std::string id = cat("j", op);
  if (lines.size() < 2) return cat("op ", op, ": fewer than two lines");
  const std::string ack = head("accepted", id);
  if (lines.front().compare(0, ack.size(), ack) != 0) {
    return cat("op ", op, ": first line is not its ack: ", lines.front());
  }
  for (const char* s : {"execute", "cache", "joined"}) {
    if (lines.front().find(cat("\"source\":\"", s, "\"")) != std::string::npos) {
      *source = s;
    }
  }
  const std::string row_head = head("row", id) + ",";
  std::vector<std::string> rows;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (l.compare(0, row_head.size(), row_head) != 0 || l.back() != '}') {
      return cat("op ", op, ": unexpected line before the terminal: ", l);
    }
    rows.push_back(l.substr(row_head.size(), l.size() - row_head.size() - 1));
  }
  const std::string& done = lines.back();
  if (done.compare(0, head("done", id).size(), head("done", id)) != 0) {
    return cat("op ", op, ": terminal line is not done: ", done);
  }
  if (json_uint(done, "rows") != d.rows || rows.size() != d.rows) {
    return cat("op ", op, ": row count differs from the reference");
  }
  if (json_uint(done, "stream_digest") != d.digest ||
      rows_digest(rows) != d.digest) {
    return cat("op ", op, ": stream_digest differs from serve::execute");
  }
  return "";
}

void ServeMixed::run_cycle(Pass& pass) {
  // Hand the previous cycle's freed heap back to the system, so that
  // peak_rss_mb is the high-water mark of one cycle rather than of how
  // the allocator's per-thread arenas happened to fill up over the run.
  malloc_trim(0);
  serve::ServerOptions options;
  options.workers = kWorkers;
  options.sweep_threads = kSweepThreads;
  options.git_rev = kRev;
  options.queue.depth = 64;
  options.queue.per_client = 8;
  // Declared before the server so that they outlive its workers.
  std::vector<Inbox> inboxes(kClients);
  serve::Server server(options);

  const std::int64_t base = pass.attempted;  // span op ids of this cycle
  const int ops = static_cast<int>(op_distinct_.size());
  std::vector<double> latency_s(op_distinct_.size(), 0);
  std::vector<std::string> errors(op_distinct_.size());
  std::vector<std::string> sources(op_distinct_.size());
  {
    TimedSection timed(pass);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Inbox& inbox = inboxes[static_cast<std::size_t>(c)];
        const serve::Server::LineSink sink = [&inbox](const std::string& l) {
          std::lock_guard<std::mutex> lock(inbox.mu);
          inbox.lines.push_back(l);
          const bool is_terminal =
              l.find("\"ev\":\"done\"") != std::string::npos ||
              l.find("\"ev\":\"error\"") != std::string::npos ||
              l.find("\"ev\":\"shed\"") != std::string::npos;
          if (is_terminal) {
            inbox.terminal = true;
            inbox.cv.notify_all();
          }
        };
        for (int op = c; op < ops; op += kClients) {
          const Distinct& d = distinct_[static_cast<std::size_t>(
              op_distinct_[static_cast<std::size_t>(op)])];
          const std::string line =
              cat("{\"schema\":\"", serve::kJobSchema,
                  "\",\"op\":\"submit\",\"client\":\"c", c, "\",\"id\":\"j",
                  op, "\",", d.fields, "}");
          std::vector<std::string> lines;
          {
            ScopedSpan span(pass.spans, "serve.submit_line", base + op,
                            kCurrentParent, /*opaque=*/true);
            server.submit_line(line, sink);
            std::unique_lock<std::mutex> lock(inbox.mu);
            inbox.cv.wait(lock, [&] { return inbox.terminal; });
            lines.swap(inbox.lines);
            inbox.terminal = false;
            latency_s[static_cast<std::size_t>(op)] = span.stop();
          }
          errors[static_cast<std::size_t>(op)] =
              check_op(op, lines, &sources[static_cast<std::size_t>(op)]);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  server.drain();
  const serve::ServerStats st = server.stats();
  server.shutdown();
  for (const Inbox& inbox : inboxes) {
    if (!inbox.lines.empty()) {
      pass.fail(cat("a client received ", inbox.lines.size(),
                    " lines after its last terminal line"));
    }
  }

  for (std::size_t i = 0; i < op_distinct_.size(); ++i) {
    pass.op_done(latency_s[i], errors[i].empty(), errors[i]);
  }
  const std::uint64_t n_ops = op_distinct_.size();
  const std::uint64_t n_distinct = distinct_.size();
  const bool ledger_ok =
      st.requests == n_ops && st.wire_errors == 0 &&
      st.cache.leads == n_distinct &&
      st.cache.hits + st.cache.joins == n_ops - n_distinct &&
      st.cache.bypasses == 0 && st.cache.failures == 0 &&
      st.executed == st.cache.leads && st.queue.accepted == st.cache.leads &&
      st.queue.shed_queue_full + st.queue.shed_client_cap +
              st.queue.shed_closed == 0;
  if (!ledger_ok) {
    pass.fail(cat("server ledger off: requests=", st.requests, " leads=",
                  st.cache.leads, " hits+joins=", st.cache.hits + st.cache.joins,
                  " distinct=", n_distinct));
  }
  pass.count("serve.submissions", static_cast<std::int64_t>(st.requests));
  pass.count("serve.cache.leads", static_cast<std::int64_t>(st.cache.leads));
  pass.count("serve.cache.hits_joins",
             static_cast<std::int64_t>(st.cache.hits + st.cache.joins));

  if (!pass.traced()) return;
  std::vector<double> exec_ms(distinct_.size(), 0);
  for (std::size_t i = 0; i < distinct_.size(); ++i) {
    const Distinct& d = distinct_[i];
    const std::int64_t op = base + d.first_op;
    {
      ScopedSpan parse(pass.spans, "serve.parse_request", op);
      (void)serve::parse_request(
          cat("{\"schema\":\"", serve::kJobSchema,
              "\",\"op\":\"submit\",\"client\":\"ref\",\"id\":\"ref\",",
              d.fields, "}"));
    }
    serve::JobResult direct;
    {
      ScopedSpan exec(pass.spans, exec_span_name(d.req.kind), op,
                      kCurrentParent, /*opaque=*/true);
      direct = serve::execute(d.req, kSweepThreads);
      exec_ms[i] = exec.stop() * 1e3;
    }
    if (direct.failed || json_uint(direct.done, "stream_digest") != d.digest) {
      pass.fail(cat("direct serve::execute of op ", d.first_op,
                    " differs from its reference"));
    }
    replicate(pass, d, op);
  }
  for (int op = 0; op < ops; ++op) {
    if (sources[static_cast<std::size_t>(op)] != "execute") continue;
    const auto di = static_cast<std::size_t>(op_distinct_[static_cast<std::size_t>(op)]);
    queue_wait_ms_.push_back(latency_s[static_cast<std::size_t>(op)] * 1e3 -
                             exec_ms[di]);
  }
}

/// Makes one job's layer calls again the way serve/exec.cpp does, each in
/// its own span, and checks the result against the server's digest.
void ServeMixed::replicate(Pass& pass, const Distinct& d, std::int64_t op) {
  SpanLog* log = pass.spans;
  const serve::Request& req = d.req;
  std::vector<std::string> rows;
  ScopedSpan root(log, "serve.replica", op);
  switch (req.kind) {
    case serve::JobKind::kSweep: {
      struct Trial {
        std::uint64_t digest;
        std::int64_t rounds;
      };
      const int n = req.n;
      const int k = req.k;
      ScopedSpan span(log, "sweep.run", op);
      const std::int64_t parent = span.id();
      const auto trials = sweep::run(
          req.trials, req.seed,
          [n, k, log, op, parent](int, Rng& rng) {
            std::vector<agreement::OneRoundKSet> ps;
            for (int i = 0; i < n; ++i) ps.emplace_back(i + 1);
            core::KUncertaintyAdversary adv(n, k, rng());
            ScopedSpan engine(log, "core.run_rounds", op, parent);
            const auto run = core::run_rounds(ps, adv);
            return Trial{decisions_digest(run.decisions), run.rounds};
          },
          kSweepThreads);
      span.stop();
      for (std::size_t t = 0; t < trials.size(); ++t) {
        rows.push_back(cat("\"trial\":", t, ",\"digest\":", trials[t].digest));
        pass.count("core.engine.rounds", trials[t].rounds);
      }
      pass.count("core.engine.runs", req.trials);
      pass.count("sweep.run.calls", 1);
      pass.count("sweep.run.trials", req.trials);
      break;
    }
    case serve::JobKind::kModelCheck: {
      core::PredicatePtr a;
      core::PredicatePtr b;
      {
        ScopedSpan span(log, "ho.compile_text", op);
        a = ho::compile_text(req.spec_a);
      }
      {
        ScopedSpan span(log, "ho.compile_text", op);
        b = ho::compile_text(req.spec_b);
      }
      pass.count("ho.compile.specs", 2);
      ScopedSpan check(log, "core.equivalent_exhaustive", op);
      core::EnumOptions options;
      options.runner = instrumented_runner(kSweepThreads, log, op, check.id(),
                                           pass);
      const core::EquivalenceResult eq =
          core::equivalent_exhaustive(*a, *b, req.n, req.rounds, options);
      check.stop();
      for (const auto* r : {&eq.forward, &eq.backward}) {
        count_enum_stats(pass, r->stats);
      }
      const auto row = [](const char* dir, const core::ImplicationResult& r) {
        return cat("\"dir\":\"", dir, "\",\"holds\":",
                   r.holds ? "true" : "false", ",\"patterns\":",
                   r.patterns_checked);
      };
      rows.push_back(row("forward", eq.forward));
      rows.push_back(row("backward", eq.backward));
      break;
    }
    case serve::JobKind::kReplay: {
      std::istringstream is(req.trace);
      trace::Trace recorded;
      {
        ScopedSpan span(log, "trace.read_trace", op);
        recorded = trace::read_trace(is);
      }
      pass.count("trace.events", static_cast<std::int64_t>(recorded.events.size()));
      trace::TraceReplayer replayer(std::move(recorded));
      const int n = replayer.n();
      const core::AdversaryPtr adversary = replayer.scripted_adversary();
      trace::CaptureRecorder capture;
      std::uint64_t digest = 0;
      {
        trace::ScopedTrace attach(&capture);
        std::vector<agreement::FloodMin> ps;
        for (int i = 0; i < n; ++i) ps.emplace_back(i * 3 + 1, req.f + 1);
        ScopedSpan span(log, "core.run_rounds", op);
        const auto run = core::run_rounds(ps, *adversary);
        digest = decisions_digest(run.decisions);
        pass.count("core.engine.rounds", run.rounds);
        pass.count("core.engine.runs", 1);
      }
      {
        ScopedSpan span(log, "trace.verify_matches", op);
        replayer.verify_matches(capture.events());
      }
      rows.push_back(cat("\"events\":", capture.events().size(),
                         ",\"byte_identical\":true,\"decision_digest\":",
                         digest, ",\"trace_rev\":\"",
                         serve::json_escape(replayer.trace().git_rev), "\""));
      break;
    }
  }
  if (rows.size() != d.rows || rows_digest(rows) != d.digest) {
    pass.fail(cat("layer calls of op ", op, " differ from the server's digest"));
  }
}

void ServeMixed::layer_metrics(const Pass& pass, const std::vector<Span>& spans,
                               Metrics& out) const {
  const auto t = totals_by_name(spans);
  const double cycles = pass.cycles;
  const auto c = [&pass](const char* name) {
    return static_cast<double>(counter(pass, name));
  };
  const auto parse = t.find("serve.parse_request");
  if (parse != t.end()) {
    put_ratio(out, "serve.wire.parse_ns", parse->second.total_s * 1e9,
              static_cast<double>(parse->second.calls));
  }
  put_ratio(out, "serve.cache.hit_ratio", c("serve.cache.hits_joins"),
            c("serve.submissions"));
  put_count(out, "serve.cache.leads", c("serve.cache.leads"));
  if (!queue_wait_ms_.empty()) {
    out["serve.queue.wait_p50_ms"] = quantile(queue_wait_ms_, 0.5);
  }
  for (const auto& [metric, span] :
       {std::pair{"serve.exec.sweep_p50_ms", "serve.execute.sweep"},
        std::pair{"serve.exec.modelcheck_p50_ms", "serve.execute.modelcheck"},
        std::pair{"serve.exec.replay_p50_ms", "serve.execute.replay"}}) {
    if (t.count(span) != 0) out[metric] = p50_ms(t, span);
  }
  put_ratio(out, "sweep.run.ns_per_trial", total_s(t, "sweep.run") * 1e9 / cycles,
            c("sweep.run.trials"));
  put_count(out, "sweep.run.calls", c("sweep.run.calls"));
  put_ratio(out, "core.engine.ns_per_round",
            total_s(t, "core.run_rounds") * 1e9 / cycles, c("core.engine.rounds"));
  put_count(out, "core.engine.rounds", c("core.engine.rounds"));
  put_ratio(out, "ho.compile.us_per_spec",
            total_s(t, "ho.compile_text") * 1e6 / cycles, c("ho.compile.specs"));
  put_ratio(out, "trace.read.ns_per_event",
            total_s(t, "trace.read_trace") * 1e9 / cycles, c("trace.events"));
  put_ratio(out, "trace.verify.ns_per_event",
            total_s(t, "trace.verify_matches") * 1e9 / cycles, c("trace.events"));
  put_count(out, "trace.events", c("trace.events"));
  submodel_metrics(pass, t, {"core.equivalent_exhaustive"}, out);
}

}  // namespace

std::unique_ptr<Workload> make_serve_mixed() {
  return std::make_unique<ServeMixed>();
}

}  // namespace perfbench
