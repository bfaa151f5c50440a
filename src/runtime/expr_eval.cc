#include "src/runtime/expr_eval.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "src/core/pretty.h"
#include "src/runtime/error.h"

namespace ldb {

Value ExprEvaluator::LookupVar(const std::string& name, const Env& env) {
  if (const Value* v = env.Lookup(name)) return *v;
  auto it = extent_cache_.find(name);
  if (it != extent_cache_.end()) return it->second;
  if (db_.schema().IsExtent(name)) {
    Value v = Value::Set(db_.Extent(name));
    extent_cache_.emplace(name, v);
    return v;
  }
  throw EvalError("unbound variable '" + name + "'");
}

bool ExprEvaluator::EvalPred(const ExprPtr& pred, const Env& env) {
  Value v = Eval(pred, env);
  if (v.is_null()) return false;
  return v.AsBool();
}

Value ApplyCompareOp(BinOpKind op, const Value& l, const Value& r) {
  // Comparisons involving NULL are false (paper: the only operation on
  // NULL is the null test).
  if (l.is_null() || r.is_null()) return Value::Bool(false);
  int c = Value::Compare(l, r);
  switch (op) {
    case BinOpKind::kEq: return Value::Bool(c == 0);
    case BinOpKind::kNe: return Value::Bool(c != 0);
    case BinOpKind::kLt: return Value::Bool(c < 0);
    case BinOpKind::kLe: return Value::Bool(c <= 0);
    case BinOpKind::kGt: return Value::Bool(c > 0);
    case BinOpKind::kGe: return Value::Bool(c >= 0);
    default:
      throw InternalError("not a comparison operator");
  }
}

namespace {

// int64 arithmetic that reports overflow instead of wrapping (or, for
// INT64_MIN / -1, trapping).
Value IntArithOp(BinOpKind op, int64_t x, int64_t y) {
  int64_t out = 0;
  bool overflow = false;
  const char* sym = "";
  switch (op) {
    case BinOpKind::kAdd:
      sym = "+";
      overflow = __builtin_add_overflow(x, y, &out);
      break;
    case BinOpKind::kSub:
      sym = "-";
      overflow = __builtin_sub_overflow(x, y, &out);
      break;
    case BinOpKind::kMul:
      sym = "*";
      overflow = __builtin_mul_overflow(x, y, &out);
      break;
    case BinOpKind::kDiv:
    case BinOpKind::kMod:
      sym = op == BinOpKind::kDiv ? "/" : "mod";
      if (y == 0) {
        throw EvalError(op == BinOpKind::kDiv ? "division by zero" : "mod by zero");
      }
      overflow = x == INT64_MIN && y == -1;
      if (!overflow) out = op == BinOpKind::kDiv ? x / y : x % y;
      break;
    default:
      throw InternalError("unhandled binop");
  }
  if (overflow) {
    throw EvalError("integer overflow: " + std::to_string(x) + " " + sym + " " +
                    std::to_string(y));
  }
  return Value::Int(out);
}

}  // namespace

Value ApplyArithOp(BinOpKind op, const Value& l, const Value& r) {
  // Arithmetic: NULL propagates.
  if (l.is_null() || r.is_null()) return Value::Null();
  double x = l.AsNumeric(), y = r.AsNumeric();
  if (l.kind() == Value::Kind::kInt && r.kind() == Value::Kind::kInt) {
    return IntArithOp(op, l.AsInt(), r.AsInt());
  }
  switch (op) {
    case BinOpKind::kAdd:
      return Value::Real(x + y);
    case BinOpKind::kSub:
      return Value::Real(x - y);
    case BinOpKind::kMul:
      return Value::Real(x * y);
    case BinOpKind::kDiv:
      if (y == 0) throw EvalError("division by zero");
      return Value::Real(x / y);
    case BinOpKind::kMod:
      throw EvalError("mod on non-integers");
    default:
      throw InternalError("unhandled binop");
  }
}

Value ApplyUnaryOp(UnOpKind op, const Value& v) {
  switch (op) {
    case UnOpKind::kIsNull:
      return Value::Bool(v.is_null());
    case UnOpKind::kNot:
      if (v.is_null()) return Value::Bool(true);  // not(false-y NULL)
      return Value::Bool(!v.AsBool());
    case UnOpKind::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.kind() == Value::Kind::kInt) {
        if (v.AsInt() == INT64_MIN) {
          throw EvalError("integer overflow: -(" + std::to_string(INT64_MIN) + ")");
        }
        return Value::Int(-v.AsInt());
      }
      return Value::Real(-v.AsNumeric());
  }
  throw InternalError("unhandled unop");
}

Value ExprEvaluator::EvalBinOp(const ExprPtr& e, const Env& env) {
  const BinOpKind op = e->bin_op;
  // Short-circuit connectives.
  if (op == BinOpKind::kAnd) {
    if (!EvalPred(e->a, env)) return Value::Bool(false);
    return Value::Bool(EvalPred(e->b, env));
  }
  if (op == BinOpKind::kOr) {
    if (EvalPred(e->a, env)) return Value::Bool(true);
    return Value::Bool(EvalPred(e->b, env));
  }

  Value l = Eval(e->a, env);
  Value r = Eval(e->b, env);
  switch (op) {
    case BinOpKind::kEq:
    case BinOpKind::kNe:
    case BinOpKind::kLt:
    case BinOpKind::kLe:
    case BinOpKind::kGt:
    case BinOpKind::kGe:
      return ApplyCompareOp(op, l, r);
    default:
      return ApplyArithOp(op, l, r);
  }
}

Value ExprEvaluator::EvalComp(const ExprPtr& comp, const Env& env) {
  Accumulator acc(comp->monoid);
  // Recursive nested-loop over the qualifiers — rules (D3)-(D7).
  std::function<void(size_t, const Env&)> loop = [&](size_t i, const Env& cur) {
    if (acc.Saturated()) return;  // quantifier short-circuit
    if (i == comp->quals.size()) {
      acc.Add(Eval(comp->a, cur));  // (D1)/(D2): accumulate unit(head)
      return;
    }
    const Qualifier& q = comp->quals[i];
    if (!q.is_generator) {
      if (EvalPred(q.expr, cur)) loop(i + 1, cur);  // (D3)/(D4)
      return;
    }
    Value dom = Eval(q.expr, cur);
    if (dom.is_null()) return;  // generator over NULL yields nothing
    for (const Value& elem : dom.AsElems()) {  // (D5)-(D7)
      loop(i + 1, cur.With(q.var, elem));
      if (acc.Saturated()) return;
    }
  };
  loop(0, env);
  return acc.Finish();
}

Value ExprEvaluator::Eval(const ExprPtr& e, const Env& env) {
  if (!e) throw EvalError("null expression");
  switch (e->kind) {
    case ExprKind::kVar:
      return LookupVar(e->name, env);
    case ExprKind::kParam:
      throw EvalError("unbound parameter $" + e->name);
    case ExprKind::kLiteral:
      return e->literal;
    case ExprKind::kRecord: {
      Fields fields;
      fields.reserve(e->fields.size());
      for (const auto& [n, f] : e->fields) fields.emplace_back(n, Eval(f, env));
      return Value::Tuple(std::move(fields));
    }
    case ExprKind::kProj:
      return db_.Navigate(Eval(e->a, env), e->name);
    case ExprKind::kIf:
      return EvalPred(e->a, env) ? Eval(e->b, env) : Eval(e->c, env);
    case ExprKind::kBinOp:
      return EvalBinOp(e, env);
    case ExprKind::kUnOp:
      return ApplyUnaryOp(e->un_op, Eval(e->a, env));
    case ExprKind::kLambda:
      throw EvalError("cannot evaluate a bare lambda: " + PrintExpr(e));
    case ExprKind::kApply: {
      if (e->a->kind != ExprKind::kLambda) {
        throw EvalError("application of non-lambda");
      }
      Value arg = Eval(e->b, env);
      return Eval(e->a->a, env.With(e->a->name, std::move(arg)));
    }
    case ExprKind::kComp:
      return EvalComp(e, env);
    case ExprKind::kMerge: {
      Value l = Eval(e->a, env);
      Value r = Eval(e->b, env);
      return MonoidMerge(e->monoid, l, r);
    }
    case ExprKind::kZero:
      return MonoidZero(e->monoid);
  }
  throw InternalError("unhandled expr kind");
}

}  // namespace ldb
