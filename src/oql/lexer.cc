#include "src/oql/lexer.h"

#include <cctype>
#include <charconv>
#include <string>
#include <system_error>

#include "src/runtime/error.h"

namespace ldb::oql {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

std::vector<Token> Lex(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  auto push = [&](TokKind k, std::string text, size_t off) {
    Token t;
    t.kind = k;
    t.lower = Lower(text);
    t.text = std::move(text);
    t.offset = off;
    out.push_back(std::move(t));
  };
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      // line comment
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      push(TokKind::kIdent, input.substr(start, i - start), start);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      bool is_real = false;
      if (i + 1 < n && input[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
        is_real = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (input[j] == '+' || input[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) {
          is_real = true;
          i = j;
          while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
        }
      }
      std::string text = input.substr(start, i - start);
      Token t;
      t.kind = is_real ? TokKind::kReal : TokKind::kInt;
      t.text = text;
      t.lower = text;
      t.offset = start;
      // Digits, '.', exponent: the only way to fail is out of range.
      const char* end = text.data() + text.size();
      const std::from_chars_result parsed =
          is_real ? std::from_chars(text.data(), end, t.real_value)
                  : std::from_chars(text.data(), end, t.int_value);
      if (parsed.ec != std::errc() || parsed.ptr != end) {
        throw ParseError(std::string(is_real ? "real" : "integer") +
                         " literal out of range at offset " +
                         std::to_string(start) + ": " + text);
      }
      out.push_back(std::move(t));
      continue;
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      ++i;
      std::string body;
      while (i < n && input[i] != quote) {
        if (input[i] == '\\' && i + 1 < n) ++i;  // simple escapes
        body.push_back(input[i]);
        ++i;
      }
      if (i >= n) {
        throw ParseError("unterminated string literal at offset " +
                         std::to_string(start));
      }
      ++i;  // closing quote
      Token t;
      t.kind = TokKind::kString;
      t.text = body;
      t.lower = Lower(body);
      t.offset = start;
      out.push_back(std::move(t));
      continue;
    }
    if (c == '$') {
      ++i;
      size_t name_start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      if (i == name_start) {
        throw ParseError("expected a parameter name after '$' at offset " +
                         std::to_string(start));
      }
      push(TokKind::kParam, input.substr(name_start, i - name_start), start);
      continue;
    }
    // multi-char symbols
    auto two = [&](const char* s) {
      return i + 1 < n && input[i] == s[0] && input[i + 1] == s[1];
    };
    if (two("!=") || two("<>") || two("<=") || two(">=")) {
      std::string sym = input.substr(i, 2);
      if (sym == "<>") sym = "!=";
      push(TokKind::kSymbol, sym, start);
      i += 2;
      continue;
    }
    static const std::string kSingles = "().,:;*+-/=<>{}";
    if (kSingles.find(c) != std::string::npos) {
      push(TokKind::kSymbol, std::string(1, c), start);
      ++i;
      continue;
    }
    throw ParseError(std::string("unexpected character '") + c +
                     "' at offset " + std::to_string(start));
  }
  Token end;
  end.kind = TokKind::kEnd;
  end.offset = n;
  out.push_back(std::move(end));
  return out;
}

}  // namespace ldb::oql
