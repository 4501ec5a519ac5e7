#include "lint/linter.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <sstream>
#include <string>

#include "util/json.h"
#include "util/str.h"

namespace rrfd::lint {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(std::move(cur));
  return lines;
}

bool is_header_path(const std::string& path) {
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  return ends_with(".h") || ends_with(".hpp");
}

/// A parsed `rrfd-lint: allow(rule, ...)` comment.
struct Suppression {
  std::vector<std::string> rules;
  int line = 0;        // line the comment starts on
  int anchor_end = 0;  // last line of the comment block it heads
  bool justified = false;
  bool used = false;
};

/// Extracts suppressions from the file's comments. A comment that
/// mentions "rrfd-lint:" but does not parse as a well-formed allow()
/// yields an unjustified suppression (rules empty), which the caller
/// reports as bad-suppression. A justification may continue over the
/// comment lines that immediately follow; the suppression then anchors
/// to the first code line after the whole block (`anchor_end + 1`).
std::vector<Suppression> parse_suppressions(
    const LexResult& lexed, const std::vector<std::string>& lines) {
  std::vector<Suppression> result;
  const std::string kTag = "rrfd-lint:";
  for (const Comment& c : lexed.comments) {
    // Only comments that *start* with the tag are suppressions; a mention
    // mid-prose (docs quoting the syntax) is not.
    if (c.text.compare(0, kTag.size(), kTag) != 0) continue;
    Suppression sup;
    sup.line = c.line;
    sup.anchor_end = c.end_line > 0 ? c.end_line : c.line;
    std::string rest = trim(c.text.substr(kTag.size()));
    const std::string kAllow = "allow(";
    if (rest.compare(0, kAllow.size(), kAllow) != 0) {
      result.push_back(std::move(sup));  // malformed: not allow(...)
      continue;
    }
    std::size_t close = rest.find(')', kAllow.size());
    if (close == std::string::npos) {
      result.push_back(std::move(sup));
      continue;
    }
    // Comma-separated rule list.
    std::string list = rest.substr(kAllow.size(), close - kAllow.size());
    std::istringstream is(list);
    std::string item;
    while (std::getline(is, item, ',')) {
      item = trim(item);
      if (!item.empty()) sup.rules.push_back(item);
    }
    // Justification: everything after the closing paren, minus a leading
    // separator (em dash, --, -, or :).
    std::string just = trim(rest.substr(close + 1));
    for (std::string_view sep : {"\xe2\x80\x94", "--", "-", ":"}) {
      if (just.compare(0, sep.size(), sep) == 0) {
        just = trim(just.substr(sep.size()));
        break;
      }
    }
    sup.justified = !sup.rules.empty() && !just.empty();
    result.push_back(std::move(sup));
  }
  // Extend each anchor through the comment-only lines directly below the
  // allow(): a justification too long for one line wraps onto further
  // `//` lines, and the suppression still guards the code line after the
  // block. A line that starts a new rrfd-lint tag ends the block.
  for (Suppression& sup : result) {
    while (sup.anchor_end >= 1 &&
           sup.anchor_end < static_cast<int>(lines.size())) {
      std::string next = trim(lines[static_cast<std::size_t>(sup.anchor_end)]);
      if (next.compare(0, 2, "//") != 0) break;
      std::string body = next.substr(2);
      std::size_t b = body.find_first_not_of("/ \t");
      if (b != std::string::npos &&
          body.compare(b, kTag.size(), kTag) == 0) {
        break;
      }
      ++sup.anchor_end;
    }
  }
  return result;
}

std::string normalize_ws(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == ' ' || c == '\t') {
      if (!out.empty() && out.back() != ' ') out += ' ';
    } else {
      out += c;
    }
  }
  return trim(out);
}

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

void append_finding_json(std::ostringstream& os, const Finding& f,
                         std::string_view status) {
  os << "{\"schema\":\"rrfd-lint-v1\",\"kind\":\"finding\",\"rule\":\""
     << json_escape(f.rule) << "\",\"path\":\"" << json_escape(f.path)
     << "\",\"line\":" << f.line << ",\"col\":" << f.col << ",\"status\":\""
     << status << "\",\"message\":\"" << json_escape(f.message)
     << "\",\"snippet\":\"" << json_escape(f.snippet) << "\",\"fingerprint\":\""
     << hex16(finding_fingerprint(f)) << "\"}\n";
}

}  // namespace

std::uint64_t finding_fingerprint(const Finding& f) {
  return fnv1a(cat(f.rule, "|", f.path, "|", normalize_ws(f.snippet)));
}

std::string baseline_entry(const Finding& f) {
  return f.rule + "|" + f.path + "|" + hex16(finding_fingerprint(f));
}

Baseline parse_baseline(const std::string& text) {
  Baseline baseline;
  for (const std::string& raw : split_lines(text)) {
    std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    // rule|path|16-hex-digit fingerprint
    std::size_t p1 = line.find('|');
    std::size_t p2 = p1 == std::string::npos ? p1 : line.find('|', p1 + 1);
    bool well_formed = p2 != std::string::npos &&
                       line.size() == p2 + 1 + 16 &&
                       line.find('|', p2 + 1) == std::string::npos;
    if (well_formed) {
      baseline.entries.push_back(line);
    } else {
      baseline.malformed.push_back(line);
    }
  }
  return baseline;
}

LintedFile lint_source(const std::string& path, const std::string& source) {
  FileContext file;
  file.path = path;
  file.lines = split_lines(source);
  file.lexed = lex(source);
  file.is_header = is_header_path(path);

  std::vector<Finding> raw;
  for (const Rule* rule : all_rules()) {
    if (rule->applies_to(path)) rule->check(file, raw);
  }
  std::stable_sort(raw.begin(), raw.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     return a.col < b.col;
                   });

  std::vector<Suppression> sups = parse_suppressions(file.lexed, file.lines);
  LintedFile out;
  for (Finding& f : raw) {
    Suppression* hit = nullptr;
    for (Suppression& s : sups) {
      // Same line as the allow(), or the first code line after its
      // comment block (single-line comments: the line directly below).
      if (s.line != f.line && s.anchor_end + 1 != f.line) continue;
      if (std::find(s.rules.begin(), s.rules.end(), f.rule) == s.rules.end()) {
        continue;
      }
      s.used = true;  // even an unjustified allow "claims" its finding
      hit = &s;
      break;
    }
    if (hit != nullptr && hit->justified) {
      out.suppressed.push_back(std::move(f));
    } else {
      out.active.push_back(std::move(f));
    }
  }
  for (const Suppression& s : sups) {
    std::string message;
    if (s.rules.empty()) {
      message = "malformed rrfd-lint comment: expected "
                "'rrfd-lint: allow(<rule>) -- <justification>'";
    } else if (!s.justified) {
      message = "suppression without a justification (add '-- <why>')";
    } else if (!s.used) {
      message = "suppression matches no finding on its own line or on the "
                "line after its comment block; remove it";
    } else {
      continue;
    }
    out.active.push_back(Finding{std::string(kBadSuppressionRule), path,
                                 s.line, 1, std::move(message),
                                 file.snippet(s.line)});
  }
  std::stable_sort(out.active.begin(), out.active.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

RunResult run_lint(
    const std::vector<std::pair<std::string, std::string>>& files,
    const Baseline& baseline) {
  RunResult result;
  result.malformed_baseline = baseline.malformed;

  // Multiset of unconsumed baseline entries.
  std::map<std::string, int> parked;
  for (const std::string& e : baseline.entries) ++parked[e];

  for (const auto& [path, source] : files) {
    ++result.files;
    LintedFile linted = lint_source(path, source);
    for (Finding& f : linted.suppressed) {
      result.suppressed.push_back(std::move(f));
    }
    for (Finding& f : linted.active) {
      auto it = parked.find(baseline_entry(f));
      if (it != parked.end() && it->second > 0) {
        --it->second;
        result.baselined.push_back(std::move(f));
      } else {
        result.unsuppressed.push_back(std::move(f));
      }
    }
  }
  for (const auto& [entry, count] : parked) {
    for (int i = 0; i < count; ++i) result.stale_baseline.push_back(entry);
  }
  return result;
}

std::string render_text(const RunResult& result) {
  std::ostringstream os;
  for (const Finding& f : result.unsuppressed) {
    os << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
       << f.message;
    if (!f.snippet.empty()) os << "\n    " << f.snippet;
    os << "\n";
  }
  for (const std::string& e : result.malformed_baseline) {
    os << "baseline: malformed entry '" << e << "'\n";
  }
  for (const std::string& e : result.stale_baseline) {
    os << "baseline: stale entry '" << e
       << "' no longer matches any finding; remove it (shrink-only)\n";
  }
  os << "rrfd_lint: " << result.files << " files, "
     << result.unsuppressed.size() << " findings, "
     << result.suppressed.size() << " suppressed, "
     << result.baselined.size() << " baselined, "
     << result.stale_baseline.size() + result.malformed_baseline.size()
     << " baseline errors\n";
  return os.str();
}

std::string render_json(const RunResult& result) {
  std::ostringstream os;
  for (const Finding& f : result.unsuppressed) {
    append_finding_json(os, f, "unsuppressed");
  }
  for (const Finding& f : result.suppressed) {
    append_finding_json(os, f, "suppressed");
  }
  for (const Finding& f : result.baselined) {
    append_finding_json(os, f, "baselined");
  }
  for (const std::string& e : result.stale_baseline) {
    os << "{\"schema\":\"rrfd-lint-v1\",\"kind\":\"stale_baseline\",\"entry\":\""
       << json_escape(e) << "\"}\n";
  }
  for (const std::string& e : result.malformed_baseline) {
    os << "{\"schema\":\"rrfd-lint-v1\",\"kind\":\"malformed_baseline\","
          "\"entry\":\""
       << json_escape(e) << "\"}\n";
  }
  os << "{\"schema\":\"rrfd-lint-v1\",\"kind\":\"summary\",\"files\":"
     << result.files << ",\"findings\":" << result.unsuppressed.size()
     << ",\"suppressed\":" << result.suppressed.size()
     << ",\"baselined\":" << result.baselined.size()
     << ",\"stale_baseline\":" << result.stale_baseline.size()
     << ",\"malformed_baseline\":" << result.malformed_baseline.size()
     << ",\"ok\":" << (result.ok() ? "true" : "false") << "}\n";
  return os.str();
}

namespace {

/// One SARIF result object. `suppression_kind` empty means the finding is
/// live; "inSource" / "external" mark allow()-silenced and baselined
/// findings so code scanning shows them as dismissed, not open.
void append_sarif_result(std::ostringstream& os, const Finding& f,
                         std::string_view level,
                         std::string_view suppression_kind, bool first) {
  if (!first) os << ",";
  os << "{\"ruleId\":\"" << json_escape(f.rule) << "\",\"level\":\"" << level
     << "\",\"message\":{\"text\":\"" << json_escape(f.message)
     << "\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":"
        "{\"uri\":\""
     << json_escape(f.path)
     << "\",\"uriBaseId\":\"SRCROOT\"},\"region\":{\"startLine\":"
     << (f.line > 0 ? f.line : 1) << ",\"startColumn\":"
     << (f.col > 0 ? f.col : 1)
     << "}}}],\"partialFingerprints\":{\"rrfdLintFingerprint/v1\":\""
     << hex16(finding_fingerprint(f)) << "\"}";
  if (!suppression_kind.empty()) {
    os << ",\"suppressions\":[{\"kind\":\"" << suppression_kind << "\"}]";
  }
  os << "}";
}

}  // namespace

std::string render_sarif(const RunResult& result) {
  std::ostringstream os;
  os << "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"rrfd_lint\",\"rules\":[";
  bool first = true;
  for (const Rule* rule : all_rules()) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":\"" << json_escape(rule->name())
       << "\",\"shortDescription\":{\"text\":\""
       << json_escape(rule->description()) << "\"}}";
  }
  os << ",{\"id\":\"" << kBadSuppressionRule
     << "\",\"shortDescription\":{\"text\":\"defective or unused "
        "rrfd-lint allow() comment\"}}]}},\"results\":[";
  first = true;
  for (const Finding& f : result.unsuppressed) {
    append_sarif_result(os, f, "error", "", first);
    first = false;
  }
  for (const Finding& f : result.suppressed) {
    append_sarif_result(os, f, "note", "inSource", first);
    first = false;
  }
  for (const Finding& f : result.baselined) {
    append_sarif_result(os, f, "note", "external", first);
    first = false;
  }
  os << "]}]}\n";
  return os.str();
}

}  // namespace rrfd::lint
