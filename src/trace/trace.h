// The flight recorder: structured round-level tracing for every execution
// substrate.
//
// The paper's models are defined entirely by the per-round families
// {D(i,r)}, yet a finished run normally keeps only the final FaultPattern.
// When a predicate check or lower-bound experiment misbehaves, the
// interesting part is *which* delivery, scheduler choice, or crash event
// produced the pattern. The tracer captures exactly that: a stream of
// small, fixed-size, typed TraceEvents emitted by the round engine
// (core/engine.h), the cooperative runtime (runtime/sim.cpp, explorer),
// the enforced-round message-passing simulator (msgpass/round_sim.cpp),
// and the semi-synchronous step simulator (semisync/network.cpp).
//
// Zero overhead when off: the only cost on an untraced hot path is one
// relaxed atomic load and a predicted branch per event site (see
// bench_trace's bm_trace_overhead, which pins the off-path cost against a
// hand-rolled uninstrumented round loop). Everything event-shaped is
// header-inline so substrates do not link against this library; only code
// that *consumes* traces (sinks, IO, replay) does.
//
// Sinks:
//   RingRecorder    -- bounded in-memory ring; feeds ContractViolation
//                      context (the last N events before a blow-up).
//   CaptureRecorder -- unbounded vector; raw material for TraceReplayer.
//   JsonlWriter     -- schema-versioned JSON Lines file/stream, git rev
//                      stamped, mirroring the BENCH_rrfd.json conventions.
//
// The JSONL schema and the replay contract are documented in DESIGN.md §3;
// set RRFD_TRACE=path to stream a run to disk from any binary linking
// rrfd_trace (see README).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"

namespace rrfd::trace {

/// What happened. One enumerator per structural event of a round-based
/// execution; every substrate maps its own vocabulary onto these.
enum class EventKind : std::uint8_t {
  kRunBegin = 0,    ///< a substrate run started
  kRunEnd,          ///< ... and finished
  kRoundStart,      ///< a round was entered (globally, or by one process)
  kRoundEnd,        ///< a round was left
  kEmit,            ///< a process produced its round message / broadcast
  kAnnounce,        ///< an RRFD announcement: D(i,r) became known
  kDeliver,         ///< a message delivery (or a whole delivered view)
  kSchedChoice,     ///< the scheduler/adversary picked who acts next
  kCrash,           ///< a crash was injected
  kDecide,          ///< a process committed to a decision
};

/// Which simulator produced an event.
enum class Substrate : std::uint8_t {
  kEngine = 0,   ///< core::run_rounds
  kRuntime,      ///< runtime::Simulation (incl. under ScheduleExplorer)
  kExplorer,     ///< runtime::ScheduleExplorer (schedule boundaries)
  kMsgpass,      ///< msgpass::RoundEnforcedSim
  kSemisync,     ///< semisync::StepSim
};

const char* kind_name(EventKind kind);
const char* substrate_name(Substrate substrate);

/// The git revision compiled into this binary (the RRFD_GIT_REV stamp
/// every JsonlWriter meta line carries): the short hash of HEAD when the
/// binary was built, with "-dirty" if tracked files differed from it, or
/// "unknown" when the build ran outside git (src/trace/git_rev.cmake).
/// Consumers that key long-lived artifacts on the revision -- the job
/// server's result cache above all -- must treat "unknown" as
/// *uncacheable*: two different builds would otherwise share every key
/// (see src/serve/cache.h).
const char* build_git_rev();

/// One structural event. Fixed-size and trivially copyable so the ring
/// recorder is a memcpy and the off-path cost is a branch. Field meaning
/// depends on `kind` (the canonical table, also in DESIGN.md §3):
///
///   kind         proc        round       a                  b
///   ------------ ----------- ----------- ------------------ -------------
///   run_begin    n           0           config word 1      config word 2
///   run_end      -1          rounds/steps outcome bits       outcome bits
///   round_start  i (or -1)   r           0                  0
///   round_end    i (or -1)   r           0                  0
///   emit         i           r           payload            1 if a valid
///   announce     i           r           D(i,r) bitmask     0
///   deliver      recipient   r           sender             payload
///   sched_choice chosen      step index  aux (take/link)    1 if crash
///   crash        p           r or step   aux (dest mask)    aux (reaches)
///   decide       p           r           decision value     1 if a valid
///
/// "config word"s are substrate-specific (engine: max_rounds /
/// stop_when_all_decided; msgpass: f / target rounds; semisync: phi /
/// max_events). Payload/decision words are recorded only when the value is
/// integral (b tells); bitmasks are ProcessSet::bits() words.
struct TraceEvent {
  EventKind kind = EventKind::kRunBegin;
  Substrate substrate = Substrate::kEngine;
  std::int32_t proc = -1;
  std::int32_t round = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Renders one event as "engine announce p=1 r=2 a=0x5 b=0".
std::string to_string(const TraceEvent& ev);

/// Receives the event stream. Implementations must tolerate events from
/// nested runs (a simulation driven inside another simulation) -- the
/// stream is a flat, ordered log.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_event(const TraceEvent& ev) = 0;

  /// Human-readable context for ContractViolation messages (the ring
  /// recorder returns its tail). Default: nothing.
  virtual std::string context() const { return {}; }
};

/// The process-wide tracer: one atomic sink pointer. All hot-path pieces
/// are inline so substrates pay one relaxed load per event site when
/// tracing is off and never link against the trace library.
class Tracer {
 public:
  /// Is any sink attached? (The off-path fast check.)
  static bool on() {
    // rrfd-lint: allow(atomic-justified) -- off-path check; swaps only
    return sink_.load(std::memory_order_relaxed) != nullptr;
  }

  static TraceSink* sink() {
    // rrfd-lint: allow(atomic-justified) -- attach() contract: no swap
    // happens while other threads emit, so no ordering is carried here
    return sink_.load(std::memory_order_relaxed);
  }

  /// Attaches `sink` (nullptr detaches) and returns the previous sink.
  /// Also installs the contract-context hook so ContractViolations carry
  /// the sink's context() while attached. Not thread-safe with respect to
  /// concurrent event emission from *other* threads mid-swap; swap only
  /// between runs.
  static TraceSink* attach(TraceSink* sink) {
    detail_install_context_hook();
    // rrfd-lint: allow(atomic-justified) -- publishes the sink's state to
    // the attaching thread's subsequent emits (swap only between runs)
    return sink_.exchange(sink, std::memory_order_acq_rel);
  }

  static void emit(const TraceEvent& ev) {
    if (TraceSink* s = sink()) s->on_event(ev);
  }

 private:
  static void detail_install_context_hook();

  static inline std::atomic<TraceSink*> sink_{nullptr};
};

/// The per-site emission helper: one relaxed load, one predicted branch,
/// and no event construction when tracing is off.
inline void record(EventKind kind, Substrate substrate, std::int32_t proc,
                   std::int32_t round, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
  TraceSink* s = Tracer::sink();
  if (!s) return;
  TraceEvent ev;
  ev.kind = kind;
  ev.substrate = substrate;
  ev.proc = proc;
  ev.round = round;
  ev.a = a;
  ev.b = b;
  s->on_event(ev);
}

/// RAII sink attachment: attach on construction, restore the previous sink
/// on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceSink* sink) : prev_(Tracer::attach(sink)) {}
  ~ScopedTrace() { Tracer::attach(prev_); }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceSink* prev_;
};

/// Bounded ring of the most recent events. The flight recorder proper:
/// cheap enough to leave on, and its tail is attached to every
/// ContractViolation raised while it is the active sink.
class RingRecorder : public TraceSink {
 public:
  explicit RingRecorder(std::size_t capacity = 256);

  void on_event(const TraceEvent& ev) override;
  std::string context() const override;

  /// Events currently held, oldest first.
  std::vector<TraceEvent> recent() const;

  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t total() const { return total_; }    ///< events ever seen
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// Renders the last `last_n` events, one per line.
  std::string to_string(std::size_t last_n = 16) const;

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t total_ = 0;
};

/// Unbounded in-memory capture; the recording half of record/replay.
class CaptureRecorder : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override { events_.push_back(ev); }

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

// ---------------------------------------------------------------------------
// Serialized traces (JSON Lines).
// ---------------------------------------------------------------------------

/// A parsed trace: schema metadata plus the event stream. The wire format
/// is JSON Lines, mirroring BENCH_rrfd.json: line 1 is a meta object
///   {"schema":"rrfd-trace-v1","git_rev":"<rev>"}
/// and every further line is one event
///   {"kind":"announce","sub":"engine","p":1,"r":2,"a":5,"b":0}
/// (a/b are unsigned decimal integers).
struct Trace {
  std::string schema;    ///< "rrfd-trace-v1"
  std::string git_rev;   ///< revision of the writing binary
  std::vector<TraceEvent> events;
};

inline constexpr const char* kTraceSchema = "rrfd-trace-v1";

/// Streams every event as JSON Lines. The meta line is written on
/// construction; events are flushed line-by-line so a crashed run still
/// leaves a readable prefix.
class JsonlWriter : public TraceSink {
 public:
  /// Writes to `os` (not owned; must outlive the writer).
  explicit JsonlWriter(std::ostream& os);
  /// Opens (truncates) `path`. Throws ContractViolation if unwritable.
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter() override;

  void on_event(const TraceEvent& ev) override;

 private:
  void write_meta();

  std::ostream* os_;
  void* owned_;  // std::ofstream* when constructed from a path
};

/// Parses the JSONL format strictly: unknown kinds, malformed lines, or a
/// missing/mismatched schema line raise ContractViolation (consistent with
/// the pattern parser's strictness).
Trace read_trace(std::istream& is);
Trace read_trace_file(const std::string& path);

/// Writes a trace back out (meta line + events); read_trace of the
/// result round-trips exactly.
void write_trace(std::ostream& os, const Trace& trace);

}  // namespace rrfd::trace
