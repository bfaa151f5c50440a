// Error types thrown by the lambdadb public API.
//
// All user-facing failures are reported as subclasses of ldb::Error so that a
// caller can catch one type at the API boundary. Internal invariant
// violations use LDB_INTERNAL_CHECK which throws InternalError with the
// failing condition and location.

#ifndef LAMBDADB_RUNTIME_ERROR_H_
#define LAMBDADB_RUNTIME_ERROR_H_

#include <stdexcept>
#include <string>

namespace ldb {

/// Base class of all lambdadb errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& msg) : std::runtime_error(msg) {}
};

/// Raised by the OQL lexer/parser on malformed input.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& msg) : Error("parse error: " + msg) {}
};

/// The deepest nesting the text readers accept: the OQL parser (its own
/// recursion and the height of the tree it returns) and the value-text
/// reader (nested tuples and collections). Deeper input is a ParseError,
/// raised before anything deeper is built, so every later recursive pass
/// over parsed input is bounded too.
inline constexpr int kMaxParseDepth = 256;

/// Raised by the type checker (calculus typing, Figure 3; algebra typing,
/// Figure 6) on ill-typed queries or plans.
class TypeError : public Error {
 public:
  explicit TypeError(const std::string& msg) : Error("type error: " + msg) {}
};

/// Raised when a query uses a feature outside the supported fragment (e.g.
/// unnesting a bag comprehension, which the paper leaves as future work).
class UnsupportedError : public Error {
 public:
  explicit UnsupportedError(const std::string& msg)
      : Error("unsupported: " + msg) {}
};

/// Raised by the evaluators on runtime failures (bad field access, dangling
/// object reference, division by zero, ...).
class EvalError : public Error {
 public:
  explicit EvalError(const std::string& msg) : Error("eval error: " + msg) {}
};

/// Raised when a running query is aborted cooperatively — an explicit
/// Cancel() on its session or an expired deadline. The executors check the
/// token at morsel boundaries and inside blocking (hash-build / nest /
/// buffer) loops, so a run aborts deterministically with all worker threads
/// joined and no partial result escaping.
class QueryCancelled : public Error {
 public:
  explicit QueryCancelled(const std::string& msg)
      : Error("query cancelled: " + msg) {}
};

/// Raised when an internal invariant is violated; indicates a bug in lambdadb.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& msg)
      : Error("internal error: " + msg) {}
};

#define LDB_INTERNAL_CHECK(cond, msg)                                   \
  do {                                                                  \
    if (!(cond)) {                                                      \
      throw ::ldb::InternalError(std::string(msg) + " (" #cond ") at " \
                                 __FILE__ ":" + std::to_string(__LINE__)); \
    }                                                                   \
  } while (0)

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_ERROR_H_
