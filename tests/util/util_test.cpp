#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/log.h"
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
  }
}

TEST(Check, RequireMsgCarriesTheMessage) {
  try {
    RRFD_REQUIRE_MSG(false, "the detector lied");
    FAIL();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the detector lied"),
              std::string::npos);
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

// ---------------------------------------------------------------------------
// log
// ---------------------------------------------------------------------------

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(Log::level()) {}
  ~LogLevelGuard() { Log::set_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Logging, OffByDefault) {
  LogLevelGuard guard;
  EXPECT_EQ(Log::level(), LogLevel::kOff);
}

TEST(Logging, LevelsFilter) {
  LogLevelGuard guard;
  Log::set_level(LogLevel::kInfo);
  // kInfo enabled, kDebug filtered: verify via stderr capture.
  testing::internal::CaptureStderr();
  log_info("visible");
  log_debug("hidden");
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("visible"), std::string::npos);
  EXPECT_EQ(out.find("hidden"), std::string::npos);
}

TEST(Logging, TraceIncludesEverything) {
  LogLevelGuard guard;
  Log::set_level(LogLevel::kTrace);
  testing::internal::CaptureStderr();
  log_info("a");
  log_debug("b");
  log_trace("c");
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("b"), std::string::npos);
  EXPECT_NE(out.find("c"), std::string::npos);
}

TEST(Logging, OffSuppressesAll) {
  LogLevelGuard guard;
  Log::set_level(LogLevel::kOff);
  testing::internal::CaptureStderr();
  log_info("x");
  log_trace("y");
  EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

namespace {
std::vector<std::pair<LogLevel, std::string>>* g_captured_lines = nullptr;
}  // namespace

TEST(Logging, InjectedSinkReceivesLinesInsteadOfStderr) {
  LogLevelGuard guard;
  Log::set_level(LogLevel::kInfo);

  std::vector<std::pair<LogLevel, std::string>> lines;
  g_captured_lines = &lines;
  Log::Sink previous = Log::set_sink(+[](LogLevel level, const std::string& msg) {
    g_captured_lines->emplace_back(level, msg);
  });
  EXPECT_EQ(previous, nullptr);  // default sink is represented as nullptr

  testing::internal::CaptureStderr();
  log_info("captured");
  log_debug("filtered before the sink");
  const std::string stderr_out = testing::internal::GetCapturedStderr();

  Log::set_sink(nullptr);
  g_captured_lines = nullptr;

  EXPECT_TRUE(stderr_out.empty());  // nothing leaked to the default writer
  ASSERT_EQ(lines.size(), 1u);      // level filtering happens before sinks
  EXPECT_EQ(lines[0].first, LogLevel::kInfo);
  EXPECT_EQ(lines[0].second, "captured");

  // Detaching restores the stderr writer.
  testing::internal::CaptureStderr();
  log_info("back to stderr");
  EXPECT_NE(testing::internal::GetCapturedStderr().find("back to stderr"),
            std::string::npos);
}

TEST(Logging, LevelAndSinkAreSafeUnderConcurrentToggling) {
  // The level and sink live in atomics precisely so concurrent writers and
  // a toggling thread do not race. This is a smoke test (a real data race
  // would need TSan to surface deterministically), but it pins the API
  // contract: logging while another thread flips the level must not crash
  // or tear.
  LogLevelGuard guard;
  testing::internal::CaptureStderr();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    for (int k = 0; k < 1000; ++k) {
      Log::set_level(k % 2 == 0 ? LogLevel::kOff : LogLevel::kInfo);
    }
    stop.store(true);
  });
  int writes = 0;
  while (!stop.load()) {
    log_info("ping");
    ++writes;
  }
  toggler.join();
  Log::set_level(LogLevel::kOff);
  testing::internal::GetCapturedStderr();
  EXPECT_GE(writes, 0);
}

namespace {
std::atomic<int> g_swap_count_a{0};
std::atomic<int> g_swap_count_b{0};
void swap_count_a(LogLevel, const std::string&) { ++g_swap_count_a; }
void swap_count_b(LogLevel, const std::string&) { ++g_swap_count_b; }
}  // namespace

TEST(Logging, SinkSwapUnderConcurrentWritersIsRaceFree) {
  // The sink slot is an atomic captureless function pointer: installing a
  // new sink while writer threads emit through the old one must be free
  // of data races (this suite runs under TSan in CI). Both sinks stay
  // valid for the whole test, so a writer that loads the old pointer
  // right before a swap still calls into live code -- that is the
  // documented contract, and why sinks must not be destroyed while
  // in use.
  LogLevelGuard guard;
  Log::set_level(LogLevel::kInfo);
  g_swap_count_a = 0;
  g_swap_count_b = 0;
  Log::Sink saved = Log::set_sink(swap_count_a);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop] {
      while (!stop.load()) log_info("ping");
    });
  }
  for (int k = 0; k < 2000; ++k) {
    Log::set_sink(k % 2 == 0 ? swap_count_b : swap_count_a);
  }
  // The swap loop can finish before the writer threads are scheduled at
  // all; hold the test open until at least one write landed so the
  // assertion below is not a coin flip.
  while (g_swap_count_a.load() + g_swap_count_b.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  Log::set_sink(saved);

  EXPECT_GT(g_swap_count_a.load() + g_swap_count_b.load(), 0);
}

}  // namespace
}  // namespace rrfd
