// rrfd_lint behaves as DESIGN.md "Static analysis & determinism lint"
// promises: each rule fires on its golden bad snippet, justified
// suppressions silence findings, justification-free or unused
// suppressions are themselves findings, and the baseline is shrink-only
// (a grown baseline is rejected, a shrunk one passes).
#include "lint/linter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lexer.h"

namespace rrfd::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Fixtures carry their pseudo-path (which drives rule scoping) in a
/// `// lint-fixture-path: <path>` first line.
std::string fixture_path(const std::string& source) {
  const std::string kTag = "lint-fixture-path:";
  std::size_t at = source.find(kTag);
  EXPECT_NE(at, std::string::npos) << "fixture missing lint-fixture-path";
  std::size_t begin = at + kTag.size();
  std::size_t end = source.find('\n', begin);
  std::string path = source.substr(begin, end - begin);
  std::size_t b = path.find_first_not_of(" \t");
  std::size_t e = path.find_last_not_of(" \t\r");
  return path.substr(b, e - b + 1);
}

std::vector<std::string> active_as_rule_lines(const LintedFile& linted) {
  std::vector<std::string> got;
  got.reserve(linted.active.size());
  for (const Finding& f : linted.active) {
    got.push_back(f.rule + ":" + std::to_string(f.line));
  }
  return got;
}

// ---------------------------------------------------------------------------
// Golden files: every *.violate and *.pass under golden/ is linted at its
// pseudo-path and compared, finding-for-finding, against its *.expected.

struct GoldenCase {
  std::string name;       // fixture stem, e.g. "no-wall-clock"
  fs::path fixture;
  fs::path expected;
};

// ctest names a parameterized case after its printed parameter. The
// default printer dumps the struct's bytes, heap pointers included, which
// renamed every case on every build; print the fixture file instead.
void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.fixture.filename().string();
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const auto& entry : fs::directory_iterator(RRFD_LINT_GOLDEN_DIR)) {
    const fs::path& p = entry.path();
    if (p.extension() != ".violate" && p.extension() != ".pass") continue;
    GoldenCase c;
    c.name = p.stem().string();
    c.fixture = p;
    c.expected = fs::path(p).replace_extension(".expected");
    cases.push_back(std::move(c));
  }
  std::sort(cases.begin(), cases.end(),
            [](const GoldenCase& a, const GoldenCase& b) {
              return a.name < b.name;
            });
  return cases;
}

class LintGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(LintGolden, FindingsMatchExpected) {
  const GoldenCase& c = GetParam();
  std::string source = read_file(c.fixture);
  LintedFile linted = lint_source(fixture_path(source), source);

  std::vector<std::string> want;
  std::istringstream is(read_file(c.expected));
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) want.push_back(line);
  }
  EXPECT_EQ(active_as_rule_lines(linted), want);

  // A .violate fixture must fail a run end-to-end (this is what gates the
  // static-analysis CI job); a .pass fixture must not.
  RunResult run = run_lint({{fixture_path(source), source}}, Baseline{});
  EXPECT_EQ(run.ok(), c.fixture.extension() == ".pass");
}

INSTANTIATE_TEST_SUITE_P(
    Golden, LintGolden, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& pinfo) {
      std::string name = pinfo.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Every registry rule must have a .violate golden fixture: adding a rule
// without demonstrating it fires is a test hole.
TEST(LintGoldenCoverage, EveryRuleHasAViolateFixture) {
  for (const Rule* rule : all_rules()) {
    fs::path fixture = fs::path(RRFD_LINT_GOLDEN_DIR) /
                       (std::string(rule->name()) + ".violate");
    EXPECT_TRUE(fs::exists(fixture))
        << "missing golden fixture for rule " << rule->name();
  }
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(LintSuppression, JustifiedAllowSilences) {
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock) -- demo timestamp only\n"
      "int t = static_cast<int>(clock());\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  EXPECT_TRUE(linted.active.empty());
  ASSERT_EQ(linted.suppressed.size(), 1u);
  EXPECT_EQ(linted.suppressed[0].rule, "no-wall-clock");
}

TEST(LintSuppression, EmDashJustificationAccepted) {
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock) \xe2\x80\x94 demo timestamp only\n"
      "int t = static_cast<int>(clock());\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  EXPECT_TRUE(linted.active.empty());
  EXPECT_EQ(linted.suppressed.size(), 1u);
}

TEST(LintSuppression, MissingJustificationKeepsFindingAndFlagsComment) {
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock)\n"
      "int t = static_cast<int>(clock());\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  ASSERT_EQ(linted.active.size(), 2u);
  EXPECT_EQ(linted.active[0].rule, kBadSuppressionRule);
  EXPECT_EQ(linted.active[1].rule, "no-wall-clock");
  EXPECT_TRUE(linted.suppressed.empty());
}

TEST(LintSuppression, WrongRuleDoesNotSilence) {
  const std::string src =
      "// rrfd-lint: allow(no-raw-random) -- wrong rule named\n"
      "int t = static_cast<int>(clock());\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  // The clock finding stays, and the allow is unused.
  ASSERT_EQ(linted.active.size(), 2u);
  EXPECT_EQ(linted.active[0].rule, kBadSuppressionRule);
  EXPECT_EQ(linted.active[1].rule, "no-wall-clock");
}

TEST(LintSuppression, UnusedAllowIsAFinding) {
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock) -- nothing to suppress\n"
      "int t = 7;\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  ASSERT_EQ(linted.active.size(), 1u);
  EXPECT_EQ(linted.active[0].rule, kBadSuppressionRule);
}

TEST(LintSuppression, ProseMentionIsNotASuppression) {
  const std::string src =
      "// The syntax is rrfd-lint: allow(rule) -- justification.\n"
      "int t = 7;\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  EXPECT_TRUE(linted.active.empty());
}

TEST(LintSuppression, MultiLineJustificationAnchorsBelowBlock) {
  // A justification too long for one line wraps onto further comment
  // lines; the suppression guards the first code line after the block.
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock) -- display-only timestamp: the\n"
      "// value never feeds back into scheduling, hashing, or any other\n"
      "// result-affecting path.\n"
      "int t = static_cast<int>(clock());\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  EXPECT_TRUE(linted.active.empty());
  ASSERT_EQ(linted.suppressed.size(), 1u);
  EXPECT_EQ(linted.suppressed[0].line, 4);
}

TEST(LintSuppression, MultiLineBlockDoesNotReachPastCode) {
  // The block ends at the first non-comment line: a violation two code
  // lines below the comment is NOT covered.
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock) -- wrapped justification text\n"
      "// continuing on a second line.\n"
      "int a = 7;\n"
      "int t = static_cast<int>(clock());\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  ASSERT_EQ(linted.active.size(), 2u);
  EXPECT_EQ(linted.active[0].rule, kBadSuppressionRule);  // unused allow
  EXPECT_EQ(linted.active[1].rule, "no-wall-clock");
}

TEST(LintSuppression, MultiLineBlockEndsAtNextTag) {
  // A new rrfd-lint tag starts its own block: the first allow does not
  // swallow the second and stretch down to its code line.
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock) -- stale leftover comment\n"
      "// rrfd-lint: allow(no-raw-random) -- demo seed for the README\n"
      "int t = rand();\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  ASSERT_EQ(linted.suppressed.size(), 1u);
  EXPECT_EQ(linted.suppressed[0].rule, "no-raw-random");
  // The first allow matches nothing and is flagged as unused.
  ASSERT_EQ(linted.active.size(), 1u);
  EXPECT_EQ(linted.active[0].rule, kBadSuppressionRule);
  EXPECT_EQ(linted.active[0].line, 1);
}

TEST(LintSuppression, MultiRuleAllowCoversBoth) {
  const std::string src =
      "// rrfd-lint: allow(no-wall-clock, no-raw-random) -- demo seed\n"
      "int t = static_cast<int>(clock()) + rand();\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  EXPECT_TRUE(linted.active.empty());
  EXPECT_EQ(linted.suppressed.size(), 2u);
}

// ---------------------------------------------------------------------------
// Baseline: shrink-only

TEST(LintBaseline, ParkedFindingPasses) {
  const std::string src = "std::mt19937 gen(1);\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  ASSERT_EQ(linted.active.size(), 1u);

  Baseline baseline;
  baseline.entries.push_back(baseline_entry(linted.active[0]));
  RunResult run = run_lint({{"src/x.cpp", src}}, baseline);
  EXPECT_TRUE(run.ok());
  EXPECT_EQ(run.baselined.size(), 1u);
  EXPECT_TRUE(run.unsuppressed.empty());
}

TEST(LintBaseline, GrownBaselineIsRejected) {
  const std::string src = "std::mt19937 gen(1);\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  ASSERT_EQ(linted.active.size(), 1u);

  Baseline baseline;
  baseline.entries.push_back(baseline_entry(linted.active[0]));
  // "Growing" the baseline: an entry for a finding that does not exist.
  baseline.entries.push_back(
      "no-wall-clock|src/other.cpp|0123456789abcdef");
  RunResult run = run_lint({{"src/x.cpp", src}}, baseline);
  EXPECT_FALSE(run.ok());
  ASSERT_EQ(run.stale_baseline.size(), 1u);
  EXPECT_EQ(run.stale_baseline[0],
            "no-wall-clock|src/other.cpp|0123456789abcdef");
}

TEST(LintBaseline, ShrunkBaselinePassesAfterFix) {
  // The violation was fixed and its entry removed: nothing stale, nothing
  // unsuppressed.
  RunResult run = run_lint({{"src/x.cpp", "int t = 7;\n"}}, Baseline{});
  EXPECT_TRUE(run.ok());
}

TEST(LintBaseline, FingerprintIgnoresLineNumbers) {
  const std::string before = "std::mt19937 gen(1);\n";
  const std::string after = "\n\n// moved down by edits above\n"
                            "std::mt19937 gen(1);\n";
  LintedFile a = lint_source("src/x.cpp", before);
  LintedFile b = lint_source("src/x.cpp", after);
  ASSERT_EQ(a.active.size(), 1u);
  ASSERT_EQ(b.active.size(), 1u);
  EXPECT_NE(a.active[0].line, b.active[0].line);
  EXPECT_EQ(finding_fingerprint(a.active[0]), finding_fingerprint(b.active[0]));
}

TEST(LintBaseline, FingerprintBytesArePinned) {
  // Baseline entries store this value, so its bytes must not move: FNV-1a
  // over "rule|path|snippet" with the snippet's blank runs collapsed.
  Finding f;
  f.rule = "no-raw-random";
  f.path = "src/x.cpp";
  f.line = 12;
  f.snippet = "  std::mt19937\t gen(1);";
  EXPECT_EQ(finding_fingerprint(f), 0x0c338d8c4fdbb64dULL);
  EXPECT_EQ(baseline_entry(f), "no-raw-random|src/x.cpp|0c338d8c4fdbb64d");
}

TEST(LintBaseline, MalformedEntriesFailTheRun) {
  Baseline baseline = parse_baseline(
      "# comment\n"
      "\n"
      "no-wall-clock|src/x.cpp|0123456789abcdef\n"
      "not a well formed line\n");
  EXPECT_EQ(baseline.entries.size(), 1u);
  ASSERT_EQ(baseline.malformed.size(), 1u);
  RunResult run = run_lint({}, baseline);
  EXPECT_FALSE(run.ok());
}

// ---------------------------------------------------------------------------
// Lexer: rules must never match inside comments or strings.

TEST(LintLexer, CommentsAndStringsAreNotCode) {
  const std::string src =
      "// mt19937 in a comment\n"
      "/* std::random_device in a block comment */\n"
      "const char* s = \"mt19937 rand() steady_clock\";\n"
      "const char* r = R\"(getenv(\"HOME\"))\";\n";
  LintedFile linted = lint_source("src/x.cpp", src);
  EXPECT_TRUE(linted.active.empty());
}

TEST(LintLexer, StringContentIsPreservedForEnvRule) {
  LexResult lexed = lex("getenv(\"RRFD_TRACE\")");
  ASSERT_EQ(lexed.tokens.size(), 4u);
  EXPECT_EQ(lexed.tokens[2].kind, TokKind::kString);
  EXPECT_EQ(lexed.tokens[2].text, "RRFD_TRACE");
}

TEST(LintLexer, DigitSeparatorsAreNotCharLiterals) {
  LexResult lexed = lex("int x = 1'000'000;");
  ASSERT_EQ(lexed.tokens.size(), 5u);
  EXPECT_EQ(lexed.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(lexed.tokens[3].text, "1'000'000");
}

TEST(LintLexer, PreprocessorContinuationsSplice) {
  LexResult lexed = lex("#define FOO(a) \\\n  bar(a)\nint x;");
  ASSERT_GE(lexed.tokens.size(), 1u);
  EXPECT_EQ(lexed.tokens[0].kind, TokKind::kPreproc);
  EXPECT_NE(lexed.tokens[0].text.find("bar"), std::string::npos);
}

TEST(LintLexer, LineCommentContinuationSwallowsNextLine) {
  // Translation phase 2: a backslash-newline inside a // comment splices
  // the next line into the comment. `rand()` below is comment text, not
  // code, and must never reach the rules.
  LexResult lexed = lex("// hidden \\\nrand();\nint x;");
  ASSERT_EQ(lexed.tokens.size(), 3u);  // int x ;
  EXPECT_EQ(lexed.tokens[0].text, "int");
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_EQ(lexed.comments[0].end_line, 2);
  EXPECT_NE(lexed.comments[0].text.find("rand"), std::string::npos);
  // And end-to-end: no finding from the spliced-away line.
  LintedFile linted = lint_source("src/x.cpp", "// ok \\\nrand();\n");
  EXPECT_TRUE(linted.active.empty());
}

TEST(LintLexer, LineCommentCrlfContinuation) {
  LexResult lexed = lex("// hidden \\\r\nrand();\nint x;");
  ASSERT_EQ(lexed.tokens.size(), 3u);
  EXPECT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].end_line, 2);
}

TEST(LintLexer, RawStringCustomDelimiter) {
  // The inner )" must not close a raw string with a custom delimiter;
  // only )delim" does.
  LexResult lexed = lex("auto s = R\"delim(rand() )\" )delim\";");
  ASSERT_EQ(lexed.tokens.size(), 5u);  // auto s = <string> ;
  EXPECT_EQ(lexed.tokens[3].kind, TokKind::kString);
  EXPECT_EQ(lexed.tokens[3].text, "rand() )\" ");
  // End-to-end: the rand() inside the literal is not a finding.
  LintedFile linted =
      lint_source("src/x.cpp", "auto s = R\"delim(rand() )\" )delim\";\n");
  EXPECT_TRUE(linted.active.empty());
}

TEST(LintLexer, RawStringPrefixedVariants) {
  for (const char* prefix : {"R", "u8R", "uR", "UR", "LR"}) {
    std::string src = std::string(prefix) + "\"(clock())\"";
    LexResult lexed = lex(src);
    ASSERT_EQ(lexed.tokens.size(), 1u) << prefix;
    EXPECT_EQ(lexed.tokens[0].kind, TokKind::kString) << prefix;
    EXPECT_EQ(lexed.tokens[0].text, "clock()") << prefix;
  }
}

TEST(LintLexer, CharLiteralPrefixedVariants) {
  for (const char* prefix : {"u8", "u", "U", "L"}) {
    std::string src = std::string(prefix) + "'x'";
    LexResult lexed = lex(src);
    ASSERT_EQ(lexed.tokens.size(), 1u) << prefix;
    EXPECT_EQ(lexed.tokens[0].kind, TokKind::kChar) << prefix;
  }
}

// ---------------------------------------------------------------------------
// Reports

TEST(LintReport, JsonIsOneRecordPerLinePlusSummary) {
  RunResult run = run_lint({{"src/x.cpp", "std::mt19937 gen(1);\n"}},
                           Baseline{});
  std::string json = render_json(run);
  int lines = 0;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"schema\":\"rrfd-lint-v1\""), std::string::npos);
  }
  EXPECT_EQ(lines, 2);  // one finding + summary
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
}

TEST(LintReport, TextSummaryCountsEverything) {
  RunResult run = run_lint({{"src/x.cpp", "std::mt19937 gen(1);\n"}},
                           Baseline{});
  std::string text = render_text(run);
  EXPECT_NE(text.find("[no-raw-random]"), std::string::npos);
  EXPECT_NE(text.find("1 files, 1 findings"), std::string::npos);
}

TEST(LintReport, SarifCarriesRulesAndResults) {
  RunResult run = run_lint({{"src/x.cpp", "std::mt19937 gen(1);\n"}},
                           Baseline{});
  std::string sarif = render_sarif(run);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"rrfd_lint\""), std::string::npos);
  // Every registry rule is described, plus the driver's bad-suppression.
  for (const Rule* rule : all_rules()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(rule->name()) + "\""),
              std::string::npos)
        << rule->name();
  }
  EXPECT_NE(sarif.find("\"id\":\"bad-suppression\""), std::string::npos);
  // The live finding is an error result with a location and fingerprint.
  EXPECT_NE(sarif.find("\"ruleId\":\"no-raw-random\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"src/x.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":1"), std::string::npos);
  EXPECT_NE(sarif.find("rrfdLintFingerprint/v1"), std::string::npos);
  EXPECT_EQ(sarif.find("\"suppressions\""), std::string::npos);
}

TEST(LintReport, SarifMarksSuppressedAndBaselined) {
  const std::string suppressed_src =
      "// rrfd-lint: allow(no-wall-clock) -- demo output only\n"
      "int t = static_cast<int>(clock());\n";
  const std::string parked_src = "std::mt19937 gen(1);\n";
  LintedFile parked = lint_source("src/y.cpp", parked_src);
  ASSERT_EQ(parked.active.size(), 1u);
  Baseline baseline;
  baseline.entries.push_back(baseline_entry(parked.active[0]));

  RunResult run = run_lint(
      {{"src/x.cpp", suppressed_src}, {"src/y.cpp", parked_src}}, baseline);
  ASSERT_TRUE(run.ok());
  std::string sarif = render_sarif(run);
  EXPECT_NE(sarif.find("\"suppressions\":[{\"kind\":\"inSource\"}]"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"suppressions\":[{\"kind\":\"external\"}]"),
            std::string::npos);
  EXPECT_EQ(sarif.find("\"level\":\"error\""), std::string::npos);
}

}  // namespace
}  // namespace rrfd::lint
