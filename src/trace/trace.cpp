#include "trace/trace.h"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/log.h"
#include "util/str.h"

#ifndef RRFD_GIT_REV
#define RRFD_GIT_REV "unknown"
#endif

namespace rrfd::trace {

namespace {

constexpr const char* kKindNames[] = {
    "run_begin", "run_end", "round_start", "round_end",  "emit",
    "announce",  "deliver", "sched",       "crash",      "decide",
};
constexpr const char* kSubstrateNames[] = {
    "engine", "runtime", "explorer", "msgpass", "semisync",
};

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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

std::string TeeSink::context() const {
  const std::string a = first_->context();
  const std::string b = second_->context();
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "\n" + b;
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

void write_log_line(std::ostream& os, int level, const std::string& msg) {
  os << "{\"kind\":\"log\",\"level\":" << level << ",\"msg\":\""
     << json_escape(msg) << "\"}\n";
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

void JsonlWriter::on_log(int level, const std::string& msg) {
  write_log_line(*os_, level, msg);
  os_->flush();
}

void write_trace(std::ostream& os, const Trace& trace) {
  write_meta_line(os, trace.git_rev);
  for (const TraceEvent& ev : trace.events) write_event_line(os, ev);
  for (const auto& [level, msg] : trace.logs) write_log_line(os, level, msg);
}

// ---------------------------------------------------------------------------
// JSONL parsing (strict, schema-checked)
// ---------------------------------------------------------------------------

namespace {

/// Minimal strict scanner for the flat one-line objects this library
/// writes. Not a general JSON parser: objects are non-nested, keys are
/// known, values are strings or decimal integers.
class LineParser {
 public:
  LineParser(const std::string& line, std::size_t lineno)
      : line_(line), lineno_(lineno) {}

  void expect(char c) {
    RRFD_REQUIRE_MSG(pos_ < line_.size() && line_[pos_] == c,
                     where() + ": expected '" + std::string(1, c) + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < line_.size() && line_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string key() {
    std::string k = string_value();
    expect(':');
    return k;
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (pos_ < line_.size() && line_[pos_] != '"') {
      char c = line_[pos_++];
      if (c == '\\') {
        RRFD_REQUIRE_MSG(pos_ < line_.size(), where() + ": dangling escape");
        char esc = line_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': {
            RRFD_REQUIRE_MSG(pos_ + 4 <= line_.size(),
                             where() + ": truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              char h = line_[pos_++];
              unsigned digit = 0;
              if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') digit = static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') digit = static_cast<unsigned>(h - 'A' + 10);
              else RRFD_REQUIRE_MSG(false, where() + ": bad \\u escape");
              code = code * 16 + digit;
            }
            RRFD_REQUIRE_MSG(code < 0x80, where() + ": non-ASCII \\u escape");
            out += static_cast<char>(code);
            break;
          }
          default:
            RRFD_REQUIRE_MSG(false, where() + ": unsupported escape");
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  /// A signed integer field stored as int32_t (process id, round, log
  /// level). A wider value could not round-trip, so it is rejected with
  /// the field's name rather than narrowed.
  std::int32_t int32_value(const std::string& field) {
    const bool negative = consume('-');
    RRFD_REQUIRE_MSG(pos_ < line_.size() && std::isdigit(
                         static_cast<unsigned char>(line_[pos_])),
                     where() + ": expected integer");
    // Largest magnitude: 2^31 for negatives, 2^31 - 1 otherwise.
    const std::int64_t limit =
        std::int64_t{std::numeric_limits<std::int32_t>::max()} +
        (negative ? 1 : 0);
    std::int64_t v = 0;
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      v = v * 10 + (line_[pos_++] - '0');
      RRFD_REQUIRE_MSG(v <= limit, where() + ": field '" + field +
                                       "' is outside int32_t");
    }
    return static_cast<std::int32_t>(negative ? -v : v);
  }

  std::uint64_t uint_value() {
    RRFD_REQUIRE_MSG(pos_ < line_.size() && std::isdigit(
                         static_cast<unsigned char>(line_[pos_])),
                     where() + ": expected unsigned integer");
    std::uint64_t v = 0;
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(line_[pos_++] - '0');
      RRFD_REQUIRE_MSG(v <= (~std::uint64_t{0} - digit) / 10,
                       where() + ": integer overflow");
      v = v * 10 + digit;
    }
    return v;
  }

  void done() {
    RRFD_REQUIRE_MSG(pos_ == line_.size(),
                     where() + ": trailing characters");
  }

  std::size_t pos() const { return pos_; }

  std::string where() const { return where(pos_); }

  /// The location of byte `at` of this line, for a diagnostic.
  std::string where(std::size_t at) const {
    return cat("trace line ", lineno_, " col ", at + 1);
  }

 private:
  const std::string& line_;
  std::size_t lineno_;
  std::size_t pos_ = 0;
};

/// The enumerator named `name` in `names`. An unknown name is rejected
/// at byte `at` of the parser's line; the location is only rendered
/// then.
template <typename Enum, std::size_t N>
Enum from_name(const char* const (&names)[N], const std::string& name,
               const char* what, const LineParser& p, std::size_t at) {
  for (std::size_t k = 0; k < N; ++k) {
    if (name == names[k]) return static_cast<Enum>(k);
  }
  RRFD_REQUIRE_MSG(false, cat(p.where(at), ": unknown ", what, " '", name,
                              "'"));
  return {};
}

}  // namespace

Trace read_trace(std::istream& is) {
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    try {
      LineParser p(line, lineno);
      p.expect('{');

      if (lineno == 1) {
        // Meta line: {"schema":"...","git_rev":"..."}.
        RRFD_REQUIRE_MSG(p.key() == "schema",
                         p.where() + ": first line must carry the schema");
        trace.schema = p.string_value();
        RRFD_REQUIRE_MSG(trace.schema == kTraceSchema,
                         p.where() + ": unsupported trace schema '" +
                             trace.schema + "'");
        p.expect(',');
        RRFD_REQUIRE_MSG(p.key() == "git_rev",
                         p.where() + ": expected git_rev");
        trace.git_rev = p.string_value();
        p.expect('}');
        p.done();
        continue;
      }
      RRFD_REQUIRE_MSG(!trace.schema.empty(),
                       p.where() + ": events before the schema line");

      RRFD_REQUIRE_MSG(p.key() == "kind", p.where() + ": expected kind");
      const std::string kind = p.string_value();
      if (kind == "log") {
        p.expect(',');
        RRFD_REQUIRE_MSG(p.key() == "level", p.where() + ": expected level");
        const int level = p.int32_value("level");
        p.expect(',');
        RRFD_REQUIRE_MSG(p.key() == "msg", p.where() + ": expected msg");
        trace.logs.emplace_back(level, p.string_value());
        p.expect('}');
        p.done();
        continue;
      }

      TraceEvent ev;
      ev.kind = from_name<EventKind>(kKindNames, kind, "event kind", p,
                                     p.pos());
      p.expect(',');
      RRFD_REQUIRE_MSG(p.key() == "sub", p.where() + ": expected sub");
      // An unknown substrate is reported at its value's opening quote.
      const std::size_t sub_at = p.pos();
      ev.substrate = from_name<Substrate>(kSubstrateNames, p.string_value(),
                                          "substrate", p, sub_at);
      p.expect(',');
      RRFD_REQUIRE_MSG(p.key() == "p", p.where() + ": expected p");
      ev.proc = p.int32_value("p");
      p.expect(',');
      RRFD_REQUIRE_MSG(p.key() == "r", p.where() + ": expected r");
      ev.round = p.int32_value("r");
      p.expect(',');
      RRFD_REQUIRE_MSG(p.key() == "a", p.where() + ": expected a");
      ev.a = p.uint_value();
      p.expect(',');
      RRFD_REQUIRE_MSG(p.key() == "b", p.where() + ": expected b");
      ev.b = p.uint_value();
      p.expect('}');
      p.done();
      trace.events.push_back(ev);
    } catch (const ContractViolation& e) {
      // Torn-line guard: a line that does not close its object is the
      // signature of interleaved partial appends from concurrent writers
      // (the reason the emitters write whole lines with one O_APPEND
      // write). Say so instead of leaving only a bare parse error.
      if (line.back() != '}') {
        RRFD_REQUIRE_MSG(
            false,
            std::string(e.what()) +
                "\n  (trace line " + std::to_string(lineno) +
                " does not end in '}': likely a torn line from a "
                "concurrent/interrupted append)");
      }
      throw;
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
// Log routing + RRFD_TRACE env hook
// ---------------------------------------------------------------------------

void forward_logs_to_trace() {
  Log::set_sink(+[](LogLevel level, const std::string& msg) {
    if (TraceSink* s = Tracer::sink()) {
      s->on_log(static_cast<int>(level), msg);
    } else {
      Log::default_write(level, msg);
    }
  });
}

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
    forward_logs_to_trace();
  }
};
const EnvTraceInit env_trace_init;

}  // namespace

}  // namespace rrfd::trace
