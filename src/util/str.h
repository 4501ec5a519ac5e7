// Small string-building helpers (GCC 12 lacks <format>).
#pragma once

#include <charconv>
#include <cstddef>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rrfd {

namespace str_detail {

template <typename T>
inline constexpr bool kIsCharacter =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char> || std::is_same_v<T, wchar_t> ||
    std::is_same_v<T, char8_t> || std::is_same_v<T, char16_t> ||
    std::is_same_v<T, char32_t>;

/// Argument types cat() appends without a stream (T is decayed).
template <typename T>
inline constexpr bool kAppends =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view> ||
    std::is_same_v<T, const char*> || std::is_same_v<T, char*> ||
    std::is_same_v<T, char> || std::is_same_v<T, bool> ||
    (std::is_integral_v<T> && !kIsCharacter<T>);

/// The number of bytes append() writes for `v`.
template <typename T>
std::size_t rendered_size(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, char>) {
    return 1;
  } else if constexpr (std::is_integral_v<T>) {
    char buf[24];
    return static_cast<std::size_t>(
        std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
  } else {
    return std::string_view(v).size();
  }
}

template <typename T>
void append(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_same_v<T, char>) {
    out += v;
  } else if constexpr (std::is_integral_v<T>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else {
    out += std::string_view(v);
  }
}

}  // namespace str_detail

/// Concatenates the stream representations of all arguments. Strings,
/// string views, C strings, char, bool and the other integer types are
/// appended straight into the result (bool as '1'/'0', integers through
/// std::to_chars) -- the bytes an ostringstream writes in the "C"
/// locale, without building one. Any other argument (double, signed or
/// unsigned char, an enum, a type with operator<<) sends the whole call
/// through one ostringstream.
template <typename... Args>
std::string cat(Args&&... args) {
  if constexpr ((str_detail::kAppends<std::decay_t<Args>> && ...)) {
    // One allocation of exactly the final size, as the stream's str()
    // copy had: results such as the job server's cached rows are kept,
    // and the slack of a doubling buffer would stay resident with them.
    std::string out;
    out.reserve((std::size_t{0} + ... +
                 str_detail::rendered_size<std::decay_t<Args>>(args)));
    (str_detail::append<std::decay_t<Args>>(out, args), ...);
    return out;
  } else {
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
  }
}

/// Joins container elements with a separator: join({1,2,3}, ",") == "1,2,3".
template <typename Container>
std::string join(const Container& c, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& e : c) {
    if (!first) os << sep;
    os << e;
    first = false;
  }
  return os.str();
}

/// Fixed-width right-aligned decimal rendering, for plain-text tables.
std::string pad_left(const std::string& s, std::size_t width);
std::string pad_right(const std::string& s, std::size_t width);

/// Renders a double with the given precision (printf "%.*f").
std::string fixed(double v, int precision);

}  // namespace rrfd
