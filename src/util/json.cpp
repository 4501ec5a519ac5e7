#include "util/json.h"

#include <limits>

#include "util/str.h"

namespace rrfd {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

ScanError::ScanError(Kind kind, std::size_t pos, std::string_view detail)
    : std::runtime_error(cat("col ", pos + 1, ": ", detail)), kind_(kind) {}

std::string Scanner::string() {
  expect('"');
  std::string out;
  for (;;) {
    // Copy the run up to the next quote or backslash in one append.
    std::size_t stop = pos_;
    while (stop < line_.size() && line_[stop] != '"' && line_[stop] != '\\') {
      ++stop;
    }
    out.append(line_.substr(pos_, stop - pos_));
    pos_ = stop;
    if (pos_ == line_.size() || line_[pos_] == '"') break;
    ++pos_;  // the backslash
    if (pos_ == line_.size()) fail("dangling escape");
    switch (line_[pos_++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos_ + 4 > line_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = line_[pos_++];
          int digit = 0;
          if (is_digit(h)) digit = h - '0';
          else if (h >= 'a' && h <= 'f') digit = h - 'a' + 10;
          else if (h >= 'A' && h <= 'F') digit = h - 'A' + 10;
          else fail("bad \\u escape");
          code = code * 16 + static_cast<unsigned>(digit);
        }
        if (code >= 0x80) fail("non-ASCII \\u escape");
        out += static_cast<char>(code);
        break;
      }
      default:
        fail("unsupported escape");
    }
  }
  expect('"');
  return out;
}

std::uint64_t Scanner::uint() {
  skip_ws();
  if (pos_ == line_.size() || !is_digit(line_[pos_])) {
    fail("expected unsigned integer");
  }
  std::uint64_t v = 0;
  while (pos_ < line_.size() && is_digit(line_[pos_])) {
    const auto digit = static_cast<std::uint64_t>(line_[pos_++] - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      fail("integer overflow", ScanError::Kind::kRange);
    }
    v = v * 10 + digit;
  }
  return v;
}

std::int32_t Scanner::int32(std::string_view field) {
  const bool negative = consume('-');
  if (pos_ == line_.size() || !is_digit(line_[pos_])) fail("expected integer");
  // Largest magnitude: 2^31 for negatives, 2^31 - 1 otherwise. A wider
  // value could not round-trip, so it is rejected rather than narrowed.
  const std::int64_t limit =
      std::int64_t{std::numeric_limits<std::int32_t>::max()} +
      (negative ? 1 : 0);
  std::int64_t v = 0;
  while (pos_ < line_.size() && is_digit(line_[pos_])) {
    v = v * 10 + (line_[pos_++] - '0');
    if (v > limit) {
      fail(cat("field '", field, "' is outside int32_t"),
           ScanError::Kind::kRange);
    }
  }
  return static_cast<std::int32_t>(negative ? -v : v);
}

void Scanner::end() {
  skip_ws();
  if (pos_ != line_.size()) fail("trailing characters");
}

void Scanner::fail(std::string_view detail, ScanError::Kind kind) const {
  throw ScanError(kind, pos_, detail);
}

void Scanner::fail_expected(char c) const {
  fail(cat("expected '", c, "'"));
}

}  // namespace json
}  // namespace rrfd
