#include "serve/server.h"

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "serve/exec.h"
#include "serve/wire.h"
#include "trace/trace.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/str.h"
#include "util/thread_annotations.h"

namespace rrfd::serve {

namespace {

std::string head(const char* ev, const std::string& id) {
  return cat("{\"schema\":\"", kJobSchema, "\",\"ev\":\"", ev,
             "\",\"id\":\"", json_escape(id), "\"");
}

std::string accepted_line(const std::string& id, const std::string& key,
                          const char* source) {
  return cat(head("accepted", id), ",\"key\":\"", json_escape(key),
             "\",\"source\":\"", source, "\"}");
}

std::string shed_line(const std::string& id, Admission admission) {
  return cat(head("shed", id), ",\"reason\":\"", admission_name(admission),
             "\"}");
}

std::string error_line(const std::string& id, const std::string& code,
                       const std::string& detail) {
  return cat(head("error", id), ",\"code\":\"", code, "\",\"detail\":\"",
             json_escape(detail), "\"}");
}

/// Renders a finished result for one subscriber: rows, then the
/// terminal line (done or error). The bytes after the id field are a
/// pure function of the result -- the byte-identity the cache promises.
/// The row head is rendered once; each row line reuses one buffer.
void deliver(const Server::LineSink& sink, const std::string& id,
             const JobResult& result) {
  if (result.failed) {
    sink(error_line(id, result.error_code, result.error_detail));
    return;
  }
  const std::string row_head = cat(head("row", id), ",");
  std::string line;
  for (const std::string& row : result.rows) {
    line = row_head;
    line += row;
    line += '}';
    sink(line);
  }
  sink(cat(head("done", id), ",", result.done, "}"));
}

/// Orders the submitter's ack line in front of anything a worker
/// writes: the worker blocks on wait() until the submitter, having
/// emitted the ack, calls open(). A ticket that is shed is destroyed
/// without a worker ever waiting, so an unopened gate cannot leak.
struct AckGate {
  Mutex mu;
  CondVar cv;
  bool opened RRFD_GUARDED_BY(mu) = false;

  void open() {
    {
      MutexLock lock(mu);
      opened = true;
    }
    cv.notify_all();
  }

  void wait() {
    MutexLock lock(mu);
    while (!opened) cv.wait(mu);
  }
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        queue(options.queue),
        cache(options.git_rev.empty() ? trace::build_git_rev()
                                      : options.git_rev) {
    RRFD_REQUIRE_MSG(options.workers >= 1, "server needs at least one worker");
    workers.reserve(static_cast<std::size_t>(options.workers));
    for (int w = 0; w < options.workers; ++w) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  void worker_loop() {
    Ticket ticket;
    while (queue.pop(&ticket)) {
      ticket.work();
      finish_one();
    }
  }

  void finish_one() {
    MutexLock lock(outstanding_mu);
    RRFD_ENSURE_MSG(outstanding > 0, "outstanding-job accounting underflow");
    --outstanding;
    if (outstanding == 0) idle.notify_all();
  }

  /// Executes one admitted job on a worker. Replay attaches the global
  /// trace sink, so it excludes everything else; sweeps and modelchecks
  /// run concurrently under the shared side.
  JobResult execute_job(const Request& req) {
    ++executed;
    if (req.kind == JobKind::kReplay) {
      WriterLock exclusive(tracer_mu);
      return execute(req, options.sweep_threads);
    }
    ReaderLock shared(tracer_mu);
    return execute(req, options.sweep_threads);
  }

  const ServerOptions options;
  // rrfd-lint: allow(guarded-member) -- internally synchronized (own mutex)
  AdmissionQueue queue;
  // rrfd-lint: allow(guarded-member) -- internally synchronized (own mutex)
  ResultCache cache;

  SharedMutex tracer_mu;  ///< replay = exclusive, others = shared

  Mutex outstanding_mu;
  CondVar idle;
  /// Tickets admitted, terminal not delivered.
  std::size_t outstanding RRFD_GUARDED_BY(outstanding_mu) = 0;

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> wire_errors{0};
  std::atomic<std::uint64_t> executed{0};

  // rrfd-lint: allow(guarded-member) -- ctor-built; joined via shutdown latch
  std::vector<std::thread> workers;
  Mutex shutdown_mu;
  bool shut_down RRFD_GUARDED_BY(shutdown_mu) = false;
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { shutdown(); }

const std::string& Server::git_rev() const { return impl_->cache.git_rev(); }

void Server::submit_line(const std::string& line, const LineSink& sink) {
  Impl& im = *impl_;
  ++im.requests;

  Request req;
  try {
    req = parse_request(line);
  } catch (const WireError& e) {
    ++im.wire_errors;
    sink(error_line(e.id(), error_code_name(e.code()), e.detail()));
    return;
  }

  if (req.op == Op::kStats) {
    const ServerStats s = stats();
    sink(cat("{\"schema\":\"", kJobSchema, "\",\"ev\":\"stats\"",
             ",\"requests\":", s.requests, ",\"wire_errors\":", s.wire_errors,
             ",\"executed\":", s.executed, ",\"accepted\":", s.queue.accepted,
             ",\"shed_queue_full\":", s.queue.shed_queue_full,
             ",\"shed_client_cap\":", s.queue.shed_client_cap,
             ",\"cache_leads\":", s.cache.leads, ",\"cache_joins\":",
             s.cache.joins, ",\"cache_hits\":", s.cache.hits,
             ",\"cache_bypasses\":", s.cache.bypasses, ",\"cache_failures\":",
             s.cache.failures, ",\"rev\":\"", json_escape(git_rev()),
             "\"}"));
    return;
  }

  const std::string key = im.cache.key(req.canonical(), req.seed);
  const std::string id = req.id;

  std::shared_ptr<const JobResult> hit;
  const ResultCache::Outcome outcome = im.cache.submit(
      key,
      // Join delivery: runs on the leader's worker thread once the
      // single execution resolves; the ack rides in front of the
      // result stream.
      [sink, id, key](const JobResult& result) {
        sink(accepted_line(id, key, "joined"));
        deliver(sink, id, result);
      },
      &hit);

  if (outcome == ResultCache::Outcome::kHit) {
    sink(accepted_line(id, key, "cache"));
    deliver(sink, id, *hit);
    return;
  }
  if (outcome == ResultCache::Outcome::kJoined) {
    return;  // ack + stream delivered by the leader
  }

  // kLead or kBypass: this submission must execute, so it faces
  // admission control.
  const bool lead = outcome == ResultCache::Outcome::kLead;
  auto gate = std::make_shared<AckGate>();
  Ticket ticket;
  ticket.client = req.client;
  ticket.work = [&im, req, key, id, sink, lead, gate] {
    gate->wait();  // the ack line goes out before any result line
    JobResult result = im.execute_job(req);
    if (lead) {
      // Resolve the cache entry first so late duplicates hit/join the
      // finished result rather than leading a second execution. A
      // success is delivered from the stored result: its rows are never
      // copied.
      if (!result.failed) {
        const auto stored = im.cache.publish(key, std::move(result));
        deliver(sink, id, *stored);
        return;
      }
      im.cache.fail(key, result);
    }
    deliver(sink, id, result);
  };

  {
    MutexLock lock(im.outstanding_mu);
    ++im.outstanding;
  }
  const Admission admission = im.queue.push(std::move(ticket));
  if (admission != Admission::kAccepted) {
    im.finish_one();
    if (lead) {
      // The execution this entry was waiting on will never run; joined
      // waiters (if any raced in) get the shed as a named failure.
      JobResult shed;
      shed.failed = true;
      shed.error_code = "shed";
      shed.error_detail = cat("leader submission shed: ",
                              admission_name(admission));
      im.cache.fail(key, shed);
    }
    sink(shed_line(id, admission));
    return;
  }
  sink(accepted_line(id, key, lead ? "execute" : "uncached"));
  gate->open();
}

void Server::drain() {
  Impl& im = *impl_;
  MutexLock lock(im.outstanding_mu);
  while (im.outstanding != 0) im.idle.wait(im.outstanding_mu);
}

void Server::shutdown() {
  Impl& im = *impl_;
  {
    MutexLock lock(im.shutdown_mu);
    if (im.shut_down) return;
    im.shut_down = true;
  }
  im.queue.close();
  for (std::thread& w : im.workers) w.join();
}

ServerStats Server::stats() const {
  const Impl& im = *impl_;
  ServerStats s;
  // rrfd-lint: allow(atomic-justified) -- advisory counter, ordering-free
  s.requests = im.requests.load(std::memory_order_relaxed);
  // rrfd-lint: allow(atomic-justified) -- advisory counter, ordering-free
  s.wire_errors = im.wire_errors.load(std::memory_order_relaxed);
  // rrfd-lint: allow(atomic-justified) -- advisory counter, ordering-free
  s.executed = im.executed.load(std::memory_order_relaxed);
  s.queue = im.queue.stats();
  s.cache = im.cache.stats();
  return s;
}

}  // namespace rrfd::serve
