// Tests for the OQL lexer (src/oql/lexer.*).

#include "src/oql/lexer.h"

#include <gtest/gtest.h>

#include "src/runtime/error.h"

namespace ldb::oql {
namespace {

TEST(LexerTest, IdentifiersAndKeywordsCaseInsensitive) {
  auto toks = Lex("SELECT distinct Employees e");
  ASSERT_EQ(toks.size(), 5u);  // 4 idents + end
  EXPECT_EQ(toks[0].kind, TokKind::kIdent);
  EXPECT_EQ(toks[0].lower, "select");
  EXPECT_EQ(toks[0].text, "SELECT");
  EXPECT_EQ(toks[2].text, "Employees");
  EXPECT_EQ(toks.back().kind, TokKind::kEnd);
}

TEST(LexerTest, Numbers) {
  auto toks = Lex("42 3.5 1e3 2.5e-1 7");
  EXPECT_EQ(toks[0].kind, TokKind::kInt);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokKind::kReal);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 3.5);
  EXPECT_EQ(toks[2].kind, TokKind::kReal);
  EXPECT_DOUBLE_EQ(toks[2].real_value, 1000.0);
  EXPECT_EQ(toks[3].kind, TokKind::kReal);
  EXPECT_DOUBLE_EQ(toks[3].real_value, 0.25);
  EXPECT_EQ(toks[4].kind, TokKind::kInt);
}

TEST(LexerTest, OutOfRangeLiteralsAreParseErrorsAtTheirOffset) {
  auto toks = Lex("9223372036854775807 1.7976931348623157e308");
  EXPECT_EQ(toks[0].int_value, INT64_MAX);
  EXPECT_DOUBLE_EQ(toks[1].real_value, 1.7976931348623157e308);
  const std::pair<std::string, std::string> bad[] = {
      {"1 + 9223372036854775808", "integer literal out of range at offset 4"},
      {"x < 99999999999999999999999", "integer literal out of range at offset 4"},
      {"1e999", "real literal out of range at offset 0"},
      {"2 * 1.5e-400", "real literal out of range at offset 4"},
  };
  for (const auto& [text, message] : bad) {
    try {
      Lex(text);
      ADD_FAILURE() << text << " lexed";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(LexerTest, Strings) {
  auto toks = Lex("'DB' \"Arlington\"");
  EXPECT_EQ(toks[0].kind, TokKind::kString);
  EXPECT_EQ(toks[0].text, "DB");
  EXPECT_EQ(toks[1].text, "Arlington");
}

TEST(LexerTest, StringEscapes) {
  auto toks = Lex("'a\\'b'");
  EXPECT_EQ(toks[0].text, "a'b");
}

TEST(LexerTest, UnterminatedStringThrows) {
  EXPECT_THROW(Lex("'oops"), ParseError);
}

TEST(LexerTest, SymbolsIncludingTwoChar) {
  auto toks = Lex("<= >= != <> = < > ( ) . , : * + - /");
  EXPECT_EQ(toks[0].text, "<=");
  EXPECT_EQ(toks[1].text, ">=");
  EXPECT_EQ(toks[2].text, "!=");
  EXPECT_EQ(toks[3].text, "!=");  // <> normalizes to !=
  EXPECT_EQ(toks[4].text, "=");
  EXPECT_EQ(toks[5].text, "<");
}

TEST(LexerTest, PathTokens) {
  auto toks = Lex("e.manager.children");
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[1].text, ".");
  EXPECT_EQ(toks[4].text, "children");
}

TEST(LexerTest, LineComments) {
  auto toks = Lex("a -- comment here\n b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(LexerTest, BadCharacterThrows) {
  EXPECT_THROW(Lex("a @ b"), ParseError);
}

TEST(LexerTest, OffsetsForDiagnostics) {
  auto toks = Lex("ab  cd");
  EXPECT_EQ(toks[0].offset, 0u);
  EXPECT_EQ(toks[1].offset, 4u);
}

}  // namespace
}  // namespace ldb::oql
