#include "src/runtime/json.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/runtime/error.h"

namespace ldb {

std::string JsonQuote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonDouble(double d) {
  if (!std::isfinite(d)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return std::string(buf, 16);
}

uint64_t FromHex16(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  uint64_t v = 0;
  for (char c : hex) {
    uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return 0;
    }
    v = (v << 4) | d;
  }
  return v;
}

void JsonReader::ExpectObjectStart() {
  Skip();
  Expect('{');
}

bool JsonReader::NextKey(std::string* key) {
  Skip();
  if (Peek() == '}') {
    ++pos_;
    return false;
  }
  if (Peek() == ',') ++pos_;
  *key = ParseString();
  Skip();
  Expect(':');
  return true;
}

void JsonReader::ExpectArrayStart() {
  Skip();
  Expect('[');
}

bool JsonReader::NextElement() {
  Skip();
  if (Peek() == ']') {
    ++pos_;
    return false;
  }
  if (Peek() == ',') ++pos_;
  return true;
}

std::string JsonReader::ParseString() {
  Skip();
  Expect('"');
  std::string out;
  while (Peek() != '"') {
    char c = s_[pos_++];
    if (c != '\\') {
      out += c;
      continue;
    }
    char e = Peek();
    ++pos_;
    switch (e) {
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        if (pos_ + 4 > s_.size()) throw ParseError("JSON: bad \\u escape");
        const uint64_t v = FromHex16(s_.substr(pos_, 4));
        if (v == 0 && s_.compare(pos_, 4, "0000") != 0) {
          throw ParseError("JSON: bad \\u escape");
        }
        pos_ += 4;
        out += static_cast<char>(v);  // the writer escapes control bytes only
        break;
      }
      default: out += e;  // '"', '\\', '/'
    }
  }
  ++pos_;
  return out;
}

double JsonReader::ParseNumber() {
  Skip();
  size_t start = pos_;
  while (pos_ < s_.size() &&
         (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
          std::strchr("+-.eE", s_[pos_]) != nullptr)) {
    ++pos_;
  }
  if (pos_ == start) throw ParseError("JSON: expected a number");
  return std::strtod(s_.c_str() + start, nullptr);
}

void JsonReader::SkipValue() {
  Skip();
  char c = Peek();
  if (c == '"') {
    ParseString();
    return;
  }
  if (c != '{' && c != '[') {
    ParseNumber();
    return;
  }
  if (depth_ >= kMaxParseDepth) {
    throw ParseError("JSON nests deeper than " +
                     std::to_string(kMaxParseDepth) + " levels");
  }
  ++depth_;
  if (c == '{') {
    ExpectObjectStart();
    std::string k;
    while (NextKey(&k)) SkipValue();
  } else {
    ExpectArrayStart();
    while (NextElement()) SkipValue();
  }
  --depth_;
}

char JsonReader::Peek() const {
  if (pos_ >= s_.size()) throw ParseError("truncated JSON");
  return s_[pos_];
}

void JsonReader::Skip() {
  while (pos_ < s_.size() &&
         std::isspace(static_cast<unsigned char>(s_[pos_]))) {
    ++pos_;
  }
}

void JsonReader::Expect(char c) {
  if (pos_ >= s_.size() || s_[pos_] != c) {
    throw ParseError(std::string("JSON: expected '") + c + "'");
  }
  ++pos_;
}

}  // namespace ldb
