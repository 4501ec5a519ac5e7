// Flat one-line JSON, shared by the repo's line formats: the one string
// escaper, the one byte-wise FNV-1a, and the one strict scanner that the
// `rrfd-job-v1` request grammar (serve/wire.cpp) and the `rrfd-trace-v1`
// reader (trace/trace.cpp) are written on.
//
// The scanner is not a general JSON parser. It reads the tokens of one
// flat object -- braces, colons, commas, strings and decimal integers --
// and leaves the grammar (which keys, in which order, which value shapes)
// to its caller. Spaces and tabs may precede any token and the end of the
// line, as in Python's `json.dumps` output; they carry no information.
// Newlines cannot occur: every format here is line-delimited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rrfd {

/// JSON string escaping: `"` and `\` are escaped, `\n` and `\t` by name,
/// every other ASCII control byte as \u00xx; all other bytes are copied.
std::string json_escape(std::string_view s);

/// 64-bit FNV-1a over a byte string. It is sequential: hashing a
/// concatenation equals hashing its parts one after another.
std::uint64_t fnv1a(std::string_view bytes);

namespace json {

/// A line the scanner (or a grammar on top of it) rejects. what() reads
/// "col N: <detail>", N being the 1-based byte column of the failure;
/// each format adds its own prefix and error name. The text is built only
/// when a line is rejected.
class ScanError : public std::runtime_error {
 public:
  /// kSyntax: the bytes are not the token the grammar expects.
  /// kRange: a well-formed integer its field cannot hold.
  enum class Kind : std::uint8_t { kSyntax, kRange };

  ScanError(Kind kind, std::size_t pos, std::string_view detail);

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Strict token scanner over one line, which must outlive it. Every
/// method throws ScanError at the first byte it cannot accept; nothing
/// but whitespace is skipped, and nothing is guessed.
class Scanner {
 public:
  explicit Scanner(std::string_view line) : line_(line) {}

  /// The byte offset of the next unread byte.
  std::size_t pos() const { return pos_; }

  /// The next byte after any whitespace, unread; '\0' at the end.
  char peek() {
    skip_ws();
    return pos_ < line_.size() ? line_[pos_] : '\0';
  }

  /// The next token must be the byte `c`.
  void expect(char c) {
    if (!consume(c)) fail_expected(c);
  }

  /// Reads the byte `c` if it is the next token.
  bool consume(char c) {
    skip_ws();
    if (pos_ < line_.size() && line_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// A string token, decoded. Escapes: \" \\ \n \t and \uXXXX below 0x80.
  std::string string();

  /// A decimal integer without sign that fits in 64 bits.
  std::uint64_t uint();

  /// A decimal integer with optional '-' that fits in int32_t; a value
  /// outside it is rejected naming `field`.
  std::int32_t int32(std::string_view field);

  /// Nothing but whitespace may remain on the line.
  void end();

  /// Rejects the line at the next unread byte.
  [[noreturn]] void fail(std::string_view detail,
                         ScanError::Kind kind = ScanError::Kind::kSyntax) const;

 private:
  void skip_ws() {
    while (pos_ < line_.size() && (line_[pos_] == ' ' || line_[pos_] == '\t')) {
      ++pos_;
    }
  }

  [[noreturn]] void fail_expected(char c) const;

  std::string_view line_;
  std::size_t pos_ = 0;
};

}  // namespace json
}  // namespace rrfd
