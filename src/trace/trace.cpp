#include "trace/trace.h"

#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "rrfd_git_rev.h"  // generated: RRFD_GIT_REV
#include "util/json.h"
#include "util/str.h"

namespace rrfd::trace {

namespace {

constexpr const char* kKindNames[] = {
    "run_begin", "run_end", "round_start", "round_end",  "emit",
    "announce",  "deliver", "sched",       "crash",      "decide",
};
constexpr const char* kSubstrateNames[] = {
    "engine", "runtime", "explorer", "msgpass", "semisync",
};

}  // namespace

const char* build_git_rev() { return RRFD_GIT_REV; }

const char* kind_name(EventKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  RRFD_REQUIRE(idx < std::size(kKindNames));
  return kKindNames[idx];
}

const char* substrate_name(Substrate substrate) {
  const auto idx = static_cast<std::size_t>(substrate);
  RRFD_REQUIRE(idx < std::size(kSubstrateNames));
  return kSubstrateNames[idx];
}

std::string to_string(const TraceEvent& ev) {
  std::ostringstream os;
  os << substrate_name(ev.substrate) << ' ' << kind_name(ev.kind)
     << " p=" << ev.proc << " r=" << ev.round << " a=" << ev.a
     << " b=" << ev.b;
  return os.str();
}

void Tracer::detail_install_context_hook() {
  rrfd::detail::contract_context_provider().store(
      +[]() -> std::string {
        TraceSink* s = Tracer::sink();
        return s ? s->context() : std::string();
      },
      // rrfd-lint: allow(atomic-justified) -- idempotent hook install
      std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// RingRecorder
// ---------------------------------------------------------------------------

RingRecorder::RingRecorder(std::size_t capacity) {
  RRFD_REQUIRE(capacity > 0);
  ring_.resize(capacity);
}

void RingRecorder::on_event(const TraceEvent& ev) {
  ring_[static_cast<std::size_t>(total_ % ring_.size())] = ev;
  ++total_;
}

std::vector<TraceEvent> RingRecorder::recent() const {
  std::vector<TraceEvent> out;
  const std::uint64_t held = total_ < ring_.size() ? total_ : ring_.size();
  out.reserve(static_cast<std::size_t>(held));
  for (std::uint64_t k = total_ - held; k < total_; ++k) {
    out.push_back(ring_[static_cast<std::size_t>(k % ring_.size())]);
  }
  return out;
}

std::string RingRecorder::to_string(std::size_t last_n) const {
  const std::vector<TraceEvent> events = recent();
  const std::size_t from = events.size() > last_n ? events.size() - last_n : 0;
  std::ostringstream os;
  os << "trace tail (" << (events.size() - from) << " of " << total_
     << " events):";
  for (std::size_t k = from; k < events.size(); ++k) {
    os << "\n  #" << (total_ - events.size() + k) << ' '
       << trace::to_string(events[k]);
  }
  return os.str();
}

std::string RingRecorder::context() const {
  if (total_ == 0) return {};
  return to_string();
}

// ---------------------------------------------------------------------------
// JSONL writing
// ---------------------------------------------------------------------------

namespace {

void write_event_line(std::ostream& os, const TraceEvent& ev) {
  os << "{\"kind\":\"" << kind_name(ev.kind) << "\",\"sub\":\""
     << substrate_name(ev.substrate) << "\",\"p\":" << ev.proc
     << ",\"r\":" << ev.round << ",\"a\":" << ev.a << ",\"b\":" << ev.b
     << "}\n";
}

void write_meta_line(std::ostream& os, const std::string& git_rev) {
  os << "{\"schema\":\"" << kTraceSchema << "\",\"git_rev\":\""
     << json_escape(git_rev) << "\"}\n";
}

}  // namespace

JsonlWriter::JsonlWriter(std::ostream& os) : os_(&os), owned_(nullptr) {
  write_meta();
}

JsonlWriter::JsonlWriter(const std::string& path) {
  auto* file = new std::ofstream(path, std::ios::trunc);
  if (!*file) {
    delete file;
    RRFD_REQUIRE_MSG(false, "cannot open trace file: " + path);
  }
  owned_ = file;
  os_ = file;
  write_meta();
}

JsonlWriter::~JsonlWriter() {
  if (owned_) delete static_cast<std::ofstream*>(owned_);
}

void JsonlWriter::write_meta() {
  write_meta_line(*os_, RRFD_GIT_REV);
  // Flush eagerly: the RRFD_TRACE env writer is never destructed, so a
  // buffered meta line would be lost in runs that record no events.
  os_->flush();
}

void JsonlWriter::on_event(const TraceEvent& ev) {
  write_event_line(*os_, ev);
  os_->flush();
}

void write_trace(std::ostream& os, const Trace& trace) {
  write_meta_line(os, trace.git_rev);
  for (const TraceEvent& ev : trace.events) write_event_line(os, ev);
}

// ---------------------------------------------------------------------------
// JSONL parsing (strict, schema-checked)
// ---------------------------------------------------------------------------

namespace {

/// Scans the key of the next field and its colon; true iff it is `name`.
bool key(json::Scanner& s, std::string_view name) {
  const std::string k = s.string();
  s.expect(':');
  return k == name;
}

/// The next field must be `name`; any other key is rejected just past
/// its colon.
void expect_key(json::Scanner& s, std::string_view name) {
  if (!key(s, name)) s.fail(cat("expected ", name));
}

/// The enumerator named `name` in `names`. An unknown name is rejected
/// at byte `at` of the line.
template <typename Enum, std::size_t N>
Enum from_name(const char* const (&names)[N], const std::string& name,
               const char* what, std::size_t at) {
  for (std::size_t k = 0; k < N; ++k) {
    if (name == names[k]) return static_cast<Enum>(k);
  }
  throw json::ScanError(json::ScanError::Kind::kSyntax, at,
                        cat("unknown ", what, " '", name, "'"));
}

/// Parses line `lineno` into `trace`: the meta line first, then one
/// event per line, each a flat object with its keys in the order the
/// writer emits them.
void read_line(std::string_view line, std::size_t lineno, Trace& trace) {
  json::Scanner s(line);
  s.expect('{');
  if (lineno == 1) {
    // Meta line: {"schema":"...","git_rev":"..."}.
    if (!key(s, "schema")) s.fail("first line must carry the schema");
    trace.schema = s.string();
    if (trace.schema != kTraceSchema) {
      s.fail(cat("unsupported trace schema '", trace.schema, "'"));
    }
    s.expect(',');
    expect_key(s, "git_rev");
    trace.git_rev = s.string();
    s.expect('}');
    s.end();
    return;
  }
  if (trace.schema.empty()) s.fail("events before the schema line");

  expect_key(s, "kind");
  const std::string kind = s.string();
  TraceEvent ev;
  ev.kind = from_name<EventKind>(kKindNames, kind, "event kind", s.pos());
  s.expect(',');
  expect_key(s, "sub");
  // An unknown substrate is reported at its value's opening quote.
  s.peek();
  const std::size_t sub_at = s.pos();
  ev.substrate =
      from_name<Substrate>(kSubstrateNames, s.string(), "substrate", sub_at);
  s.expect(',');
  expect_key(s, "p");
  ev.proc = s.int32("p");
  s.expect(',');
  expect_key(s, "r");
  ev.round = s.int32("r");
  s.expect(',');
  expect_key(s, "a");
  ev.a = s.uint();
  s.expect(',');
  expect_key(s, "b");
  ev.b = s.uint();
  s.expect('}');
  s.end();
  trace.events.push_back(ev);
}

}  // namespace

Trace read_trace(std::istream& is) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // A CRLF file reads like its LF copy: the '\r' ends the line.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    try {
      read_line(line, lineno, trace);
    } catch (const json::ScanError& e) {
      // Torn-line guard: a line that does not close its object is the
      // signature of interleaved partial appends from concurrent writers
      // (the reason the emitters write whole lines with one O_APPEND
      // write). Say so instead of leaving only a bare parse error.
      RRFD_REQUIRE_MSG(
          false,
          cat("trace line ", lineno, " ", e.what(),
              line.back() != '}'
                  ? cat("\n  (trace line ", lineno,
                        " does not end in '}': likely a torn line from a "
                        "concurrent/interrupted append)")
                  : std::string()));
    }
  }
  RRFD_REQUIRE_MSG(!trace.schema.empty(), "trace is empty (no schema line)");
  return trace;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream is(path);
  RRFD_REQUIRE_MSG(static_cast<bool>(is), "cannot open trace file: " + path);
  return read_trace(is);
}

// ---------------------------------------------------------------------------
// RRFD_TRACE env hook
// ---------------------------------------------------------------------------

namespace {

/// RRFD_TRACE=path streams every run of the hosting binary to `path` as
/// JSONL (binaries linking rrfd_trace only; see README). Attached before
/// main() runs; intentionally leaked so late events still land.
struct EnvTraceInit {
  EnvTraceInit() {
    const char* path = std::getenv("RRFD_TRACE");
    if (path == nullptr || *path == '\0') return;
    auto* writer = new JsonlWriter(std::string(path));
    Tracer::attach(writer);
  }
};
const EnvTraceInit env_trace_init;

}  // namespace

}  // namespace rrfd::trace
