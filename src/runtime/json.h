// The JSON primitives every hand-rolled document in the repository shares:
// one string writer, one recursive-descent reader and one 16-hex-digit id
// formatter. The profile (runtime/profile.h), the metrics snapshot
// (obs/metrics.h), request traces (obs/trace.h), INTROSPECT documents
// (obs/introspect.h) and the benchmark reports all write through them, so
// they escape strings by the same rules and read back what they wrote.
//
// Layering: runtime, so the profile can use it; obs and above include it
// freely.

#ifndef LAMBDADB_RUNTIME_JSON_H_
#define LAMBDADB_RUNTIME_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ldb {

/// `s` as a JSON string literal, quotes included: `"` and `\` are escaped,
/// \n, \r and \t use their short escapes and every other control character
/// becomes \u00XX. Other bytes pass through unchanged.
std::string JsonQuote(const std::string& s);

/// A finite double with 17 significant digits, so a reader gets the same
/// bits back; JSON has no Inf or NaN, which print as 0.
std::string JsonDouble(double d);

/// 16 lowercase hex digits, zero-padded: how trace ids and query hashes
/// appear in every text output.
std::string Hex16(uint64_t v);

/// Inverse of Hex16, case-insensitive. Empty, over-long or non-hex text
/// reads as 0.
uint64_t FromHex16(const std::string& hex);

/// A minimal recursive-descent reader over objects, arrays, strings and
/// numbers: the schemas the writers above produce. Malformed input, and
/// values nested deeper than kMaxParseDepth, throw ParseError.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  void ExpectObjectStart();
  /// Reads the next key of the current object into *key; false at its '}'.
  bool NextKey(std::string* key);
  void ExpectArrayStart();
  /// Advances to the next element of the current array; false at its ']'.
  bool NextElement();

  std::string ParseString();
  double ParseNumber();
  uint64_t ParseUint() { return static_cast<uint64_t>(ParseNumber()); }
  /// Skips one value of any kind (unknown keys).
  void SkipValue();

 private:
  char Peek() const;
  void Skip();
  void Expect(char c);

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_JSON_H_
