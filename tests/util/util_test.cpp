#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/str.h"

namespace rrfd {
namespace {

// ---------------------------------------------------------------------------
// str helpers
// ---------------------------------------------------------------------------

TEST(Str, CatConcatenatesMixedTypes) {
  EXPECT_EQ(cat("n=", 5, " p=", 1.5), "n=5 p=1.5");
  EXPECT_EQ(cat(), "");
  EXPECT_EQ(cat(42), "42");
}

/// What an ostringstream writes for the arguments: cat's reference.
template <typename... Args>
std::string streamed(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

TEST(Str, CatMatchesTheStreamRendering) {
  // Every type cat() appends without a stream must give the stream's
  // bytes exactly.
  static_assert(str_detail::kAppends<std::string> &&
                str_detail::kAppends<std::string_view> &&
                str_detail::kAppends<const char*> &&
                str_detail::kAppends<char> && str_detail::kAppends<bool> &&
                str_detail::kAppends<short> &&
                str_detail::kAppends<std::size_t>);
  static_assert(!str_detail::kAppends<double> &&
                !str_detail::kAppends<signed char> &&
                !str_detail::kAppends<unsigned char>);
  const std::string s = "str";
  const std::string empty;
  const std::string_view view = "view";
  char buf[] = "mutable";
  EXPECT_EQ(cat(0), streamed(0));
  EXPECT_EQ(cat(-1), streamed(-1));
  EXPECT_EQ(cat(INT64_MIN), streamed(INT64_MIN));
  EXPECT_EQ(cat(INT64_MAX), streamed(INT64_MAX));
  EXPECT_EQ(cat(UINT64_MAX), streamed(UINT64_MAX));
  EXPECT_EQ(cat(short{-32768}), streamed(short{-32768}));
  EXPECT_EQ(cat(static_cast<unsigned short>(65535)),
            streamed(static_cast<unsigned short>(65535)));
  EXPECT_EQ(cat(4294967295u), streamed(4294967295u));
  EXPECT_EQ(cat(std::size_t{18446744073709551615ULL}),
            streamed(std::size_t{18446744073709551615ULL}));
  EXPECT_EQ(cat(-7L, 7UL, -7LL, 7ULL), streamed(-7L, 7UL, -7LL, 7ULL));
  EXPECT_EQ(cat(true, false), streamed(true, false));
  EXPECT_EQ(cat(true, false), "10");
  EXPECT_EQ(cat('x', '\0', 'y'), streamed('x', '\0', 'y'));
  EXPECT_EQ(cat('\0').size(), 1u);
  EXPECT_EQ(cat(s, empty, view, "lit", buf), streamed(s, empty, view, "lit", buf));
  EXPECT_EQ(cat(empty), "");
  EXPECT_EQ(cat("a", 1, 'b', true, view, -2, s),
            streamed("a", 1, 'b', true, view, -2, s));
}

TEST(Str, JoinWithSeparator) {
  EXPECT_EQ(join(std::vector<int>{1, 2, 3}, ","), "1,2,3");
  EXPECT_EQ(join(std::vector<int>{7}, ","), "7");
  EXPECT_EQ(join(std::vector<int>{}, ","), "");
  EXPECT_EQ(join(std::vector<std::string>{"a", "b"}, " -> "), "a -> b");
}

TEST(Str, PadLeft) {
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_left("abc", 3), "abc");
  EXPECT_EQ(pad_left("abcd", 3), "abcd");  // never truncates
}

TEST(Str, PadRight) {
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(Str, FixedPrecision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

// ---------------------------------------------------------------------------
// contracts
// ---------------------------------------------------------------------------

TEST(Check, RequireThrowsWithLocation) {
  try {
    RRFD_REQUIRE(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
    // message() is the same check without its location.
    EXPECT_EQ(e.message(), "precondition failed: (1 == 2)");
  }
}

TEST(Check, RequireMsgCarriesTheMessage) {
  try {
    RRFD_REQUIRE_MSG(false, "the detector lied");
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the detector lied"),
              std::string::npos);
    EXPECT_EQ(e.message(), "the detector lied");
  }
}

TEST(Check, EnsureThrowsInvariant) {
  try {
    RRFD_ENSURE(false);
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

TEST(Check, PassingChecksAreSilent) {
  EXPECT_NO_THROW(RRFD_REQUIRE(true));
  EXPECT_NO_THROW(RRFD_ENSURE(2 + 2 == 4));
  EXPECT_NO_THROW(RRFD_REQUIRE_MSG(true, "unused"));
}

}  // namespace
}  // namespace rrfd
