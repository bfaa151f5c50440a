// Direct interpreter for monoid calculus terms, implementing the reduction
// semantics (D1)-(D7) of Fegaras, SIGMOD'98 by nested iteration.
//
// This interpreter plays two roles:
//  * it is the BASELINE evaluator: evaluating an unoptimized comprehension
//    this way is exactly the naive nested-loop strategy the paper says OODB
//    systems use without unnesting ("for each step of the outer query, all
//    the steps of the inner query need to be executed", Section 1);
//  * the algebra executor reuses it for operator heads and predicates
//    (which are comprehension-free after unnesting).
//
// NULL discipline (paper Section 2/3): the only operations on NULL are
// creation and testing. Navigation from NULL yields NULL, comparisons with
// NULL yield false, arithmetic with NULL yields NULL, and accumulating NULL
// into a monoid contributes the zero element.

#ifndef LAMBDADB_RUNTIME_EXPR_EVAL_H_
#define LAMBDADB_RUNTIME_EXPR_EVAL_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/expr.h"
#include "src/runtime/database.h"

namespace ldb {

/// A runtime environment: range-variable bindings, in binding order.
/// Lookup is linear — environments hold a handful of variables.
class Env {
 public:
  Env() = default;

  void Bind(const std::string& var, Value v) {
    vars_.emplace_back(var, std::move(v));
  }

  /// Returns the binding, or nullptr if absent (later bindings shadow
  /// earlier ones).
  const Value* Lookup(const std::string& var) const {
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
      if (it->first == var) return &it->second;
    }
    return nullptr;
  }

  /// Extends a copy of this environment with one more binding.
  Env With(const std::string& var, Value v) const {
    Env out = *this;
    out.Bind(var, std::move(v));
    return out;
  }

  const std::vector<std::pair<std::string, Value>>& bindings() const {
    return vars_;
  }

 private:
  std::vector<std::pair<std::string, Value>> vars_;
};

/// Comparison operator on already-evaluated operands. Comparisons involving
/// NULL are false (the paper's NULL discipline). `op` must be one of
/// kEq/kNe/kLt/kLe/kGt/kGe.
Value ApplyCompareOp(BinOpKind op, const Value& l, const Value& r);

/// Arithmetic operator on already-evaluated operands; NULL propagates.
/// `op` must be one of kAdd/kSub/kMul/kDiv/kMod. An int result outside
/// int64 (including INT64_MIN / -1 and INT64_MIN mod -1) is an EvalError,
/// as is division or mod by zero.
Value ApplyArithOp(BinOpKind op, const Value& l, const Value& r);

/// Unary operator on an already-evaluated operand (NULL discipline included).
/// Negating INT64_MIN is an EvalError.
Value ApplyUnaryOp(UnOpKind op, const Value& v);

/// Evaluates calculus terms against a database. Caches extent values so that
/// repeated evaluation of the same extent name does not rebuild the set.
class ExprEvaluator {
 public:
  explicit ExprEvaluator(const Database& db) : db_(db) {}

  /// Evaluates `e` under `env`. Throws EvalError on runtime failures.
  Value Eval(const ExprPtr& e, const Env& env);

  /// Evaluates a predicate: NULL and non-bool results count as false only if
  /// NULL (non-bool throws).
  bool EvalPred(const ExprPtr& pred, const Env& env);

  const Database& db() const { return db_; }

 private:
  Value EvalComp(const ExprPtr& comp, const Env& env);
  Value EvalBinOp(const ExprPtr& e, const Env& env);
  Value LookupVar(const std::string& name, const Env& env);

  const Database& db_;
  std::map<std::string, Value> extent_cache_;
};

}  // namespace ldb

#endif  // LAMBDADB_RUNTIME_EXPR_EVAL_H_
