#include "src/core/typecheck.h"

#include "src/core/pretty.h"
#include "src/runtime/error.h"

namespace ldb {

namespace {

TypePtr LiteralType(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return Type::Any();
    case Value::Kind::kBool:
      return Type::Bool();
    case Value::Kind::kInt:
      return Type::Int();
    case Value::Kind::kReal:
      return Type::Real();
    case Value::Kind::kStr:
      return Type::Str();
    case Value::Kind::kRef:
      return Type::Class(v.AsRef().class_name());
    case Value::Kind::kTuple: {
      std::vector<std::pair<std::string, TypePtr>> fields;
      const Record& t = v.AsTuple();
      for (size_t i = 0; i < t.size(); ++i) {
        fields.emplace_back(t.name(i), LiteralType(t.value(i)));
      }
      return Type::Tuple(std::move(fields));
    }
    case Value::Kind::kSet:
    case Value::Kind::kBag:
    case Value::Kind::kList: {
      TypePtr elem = Type::Any();
      for (const Value& x : v.AsElems()) {
        TypePtr t = Type::Unify(elem, LiteralType(x));
        if (!t) throw TypeError("heterogeneous collection literal");
        elem = t;
      }
      Type::Kind k = v.kind() == Value::Kind::kSet   ? Type::Kind::kSet
                     : v.kind() == Value::Kind::kBag ? Type::Kind::kBag
                                                     : Type::Kind::kList;
      return Type::Collection(k, elem);
    }
  }
  return Type::Any();
}

class Checker {
 public:
  explicit Checker(const Schema& schema) : schema_(schema) {}

  TypePtr Check(const ExprPtr& e, const TypeEnv& env) {
    if (!e) throw TypeError("null expression");
    switch (e->kind) {
      case ExprKind::kVar: {  // (T1) + extent resolution
        auto it = env.find(e->name);
        if (it != env.end()) return it->second;
        if (const ClassDecl* cls = schema_.FindExtent(e->name)) {
          return Type::Set(Type::Class(cls->name));
        }
        throw TypeError("unbound variable '" + e->name + "'");
      }
      case ExprKind::kParam: {
        // Parameters are dynamically typed: the binding arrives at execute
        // time, so they check as Any (which unifies with everything).
        return Type::Any();
      }
      case ExprKind::kLiteral:
        return LiteralType(e->literal);
      case ExprKind::kRecord: {  // (T2)
        std::vector<std::pair<std::string, TypePtr>> fields;
        for (const auto& [n, f] : e->fields) fields.emplace_back(n, Check(f, env));
        return Type::Tuple(std::move(fields));
      }
      case ExprKind::kProj: {  // (T3)
        TypePtr base = Check(e->a, env);
        if (base->kind() == Type::Kind::kClass) {
          const ClassDecl* cls = schema_.FindClass(base->class_name());
          if (!cls) throw TypeError("unknown class '" + base->class_name() + "'");
          TypePtr t = cls->AttributeType(e->name);
          if (!t) {
            throw TypeError("class " + cls->name + " has no attribute '" +
                            e->name + "'");
          }
          return t;
        }
        if (base->kind() == Type::Kind::kTuple) {
          TypePtr t = base->FieldType(e->name);
          if (!t) {
            throw TypeError("record " + base->ToString() + " has no field '" +
                            e->name + "'");
          }
          return t;
        }
        if (base->kind() == Type::Kind::kAny) return Type::Any();
        throw TypeError("projection ." + e->name + " on non-record type " +
                        base->ToString());
      }
      case ExprKind::kIf: {  // (T4)
        Require(e->a, Type::Bool(), env, "if-condition");
        TypePtr t = Type::Unify(Check(e->b, env), Check(e->c, env));
        if (!t) throw TypeError("if-branches have incompatible types");
        return t;
      }
      case ExprKind::kBinOp:
        return CheckBinOp(e, env);
      case ExprKind::kUnOp: {
        TypePtr t = Check(e->a, env);
        switch (e->un_op) {
          case UnOpKind::kNot:
            if (!Type::Equal(t, Type::Bool())) {
              throw TypeError("'not' on non-bool");
            }
            return Type::Bool();
          case UnOpKind::kNeg:
            if (!t->is_numeric() && t->kind() != Type::Kind::kAny) {
              throw TypeError("negation on non-numeric");
            }
            return t;
          case UnOpKind::kIsNull:
            return Type::Bool();
        }
        return Type::Any();
      }
      case ExprKind::kLambda: {  // (T6) — parameter type is not annotated in
        // this AST; lambdas only appear transiently during rewriting, so the
        // checker types the body with the parameter at Any.
        TypeEnv inner = env;
        inner[e->name] = Type::Any();
        return Type::Func(Type::Any(), Check(e->a, inner));
      }
      case ExprKind::kApply: {  // (T7)
        TypePtr f = Check(e->a, env);
        Check(e->b, env);
        if (f->kind() == Type::Kind::kFunc) return f->result();
        if (f->kind() == Type::Kind::kAny) return Type::Any();
        throw TypeError("application of non-function");
      }
      case ExprKind::kComp:  // (T8)/(T9) generalized to all monoids
        return CheckComp(e, env);
      case ExprKind::kMerge: {
        TypePtr l = Check(e->a, env);
        TypePtr r = Check(e->b, env);
        TypePtr t = Type::Unify(l, r);
        if (!t) throw TypeError("merge of incompatible types");
        CheckMonoidValue(e->monoid, t, "merge");
        return t;
      }
      case ExprKind::kZero:
        switch (e->monoid) {
          case MonoidKind::kSet:  return Type::Set(Type::Any());
          case MonoidKind::kBag:  return Type::Bag(Type::Any());
          case MonoidKind::kList: return Type::List(Type::Any());
          case MonoidKind::kSome:
          case MonoidKind::kAll:  return Type::Bool();
          default:                return Type::Real();
        }
    }
    throw TypeError("unhandled expression kind");
  }

 private:
  const Schema& schema_;

  void Require(const ExprPtr& e, const TypePtr& expected, const TypeEnv& env,
               const std::string& what) {
    TypePtr t = Check(e, env);
    if (!Type::Equal(t, expected)) {
      throw TypeError(what + " has type " + t->ToString() + ", expected " +
                      expected->ToString() + " in " + PrintExpr(e));
    }
  }

  // Checks that a value of type t is acceptable for monoid m.
  void CheckMonoidValue(MonoidKind m, const TypePtr& t, const std::string& what) {
    switch (m) {
      case MonoidKind::kSet:
        if (t->kind() != Type::Kind::kSet && t->kind() != Type::Kind::kAny) {
          throw TypeError(what + ": expected set, got " + t->ToString());
        }
        return;
      case MonoidKind::kBag:
        if (t->kind() != Type::Kind::kBag && t->kind() != Type::Kind::kAny) {
          throw TypeError(what + ": expected bag, got " + t->ToString());
        }
        return;
      case MonoidKind::kList:
        if (t->kind() != Type::Kind::kList && t->kind() != Type::Kind::kAny) {
          throw TypeError(what + ": expected list, got " + t->ToString());
        }
        return;
      case MonoidKind::kSome:
      case MonoidKind::kAll:
        if (!Type::Equal(t, Type::Bool())) {
          throw TypeError(what + ": expected bool, got " + t->ToString());
        }
        return;
      default:
        if (!t->is_numeric() && t->kind() != Type::Kind::kAny) {
          throw TypeError(what + ": expected numeric, got " + t->ToString());
        }
        return;
    }
  }

  TypePtr CheckBinOp(const ExprPtr& e, const TypeEnv& env) {
    TypePtr l = Check(e->a, env);
    TypePtr r = Check(e->b, env);
    switch (e->bin_op) {
      case BinOpKind::kAnd:
      case BinOpKind::kOr:
        if (!Type::Equal(l, Type::Bool()) || !Type::Equal(r, Type::Bool())) {
          throw TypeError("boolean connective on non-bool operands in " +
                          PrintExpr(e));
        }
        return Type::Bool();
      case BinOpKind::kEq:
      case BinOpKind::kNe:
        if (!Type::Unify(l, r)) {
          throw TypeError("comparison of incompatible types " + l->ToString() +
                          " and " + r->ToString() + " in " + PrintExpr(e));
        }
        return Type::Bool();
      case BinOpKind::kLt:
      case BinOpKind::kLe:
      case BinOpKind::kGt:
      case BinOpKind::kGe: {
        TypePtr t = Type::Unify(l, r);
        if (!t || (!t->is_numeric() && t->kind() != Type::Kind::kStr &&
                   t->kind() != Type::Kind::kAny)) {
          throw TypeError("ordering comparison on non-ordered types in " +
                          PrintExpr(e));
        }
        return Type::Bool();
      }
      default: {  // arithmetic
        TypePtr t = Type::Unify(l, r);
        if (!t || (!t->is_numeric() && t->kind() != Type::Kind::kAny)) {
          throw TypeError("arithmetic on non-numeric operands in " +
                          PrintExpr(e));
        }
        return t;
      }
    }
  }

  TypePtr CheckComp(const ExprPtr& e, const TypeEnv& env) {
    TypeEnv inner = env;
    for (const Qualifier& q : e->quals) {
      if (q.is_generator) {
        TypePtr dom = Check(q.expr, inner);
        if (dom->kind() == Type::Kind::kAny) {
          inner[q.var] = Type::Any();
        } else if (dom->is_collection()) {
          inner[q.var] = dom->elem();
        } else {
          throw TypeError("generator domain of '" + q.var +
                          "' is not a collection: " + dom->ToString());
        }
      } else {
        TypePtr p = Check(q.expr, inner);
        if (!Type::Equal(p, Type::Bool())) {
          throw TypeError("filter is not boolean: " + PrintExpr(q.expr));
        }
      }
    }
    TypePtr head = Check(e->a, inner);
    if (TypePtr constraint = MonoidHeadConstraint(e->monoid)) {
      if (!Type::Unify(head, constraint)) {
        throw TypeError(std::string("head of ") + MonoidName(e->monoid) +
                        "-comprehension has type " + head->ToString());
      }
    }
    return MonoidResultType(e->monoid, head);
  }
};

}  // namespace

TypePtr TypeCheck(const ExprPtr& e, const Schema& schema, const TypeEnv& env) {
  Checker c(schema);
  return c.Check(e, env);
}

namespace {

void RequireBool(const ExprPtr& pred, const Schema& schema, const TypeEnv& env,
                 const char* where) {
  TypePtr t = TypeCheck(pred, schema, env);
  if (!Type::Equal(t, Type::Bool())) {
    throw TypeError(std::string(where) + " predicate is not boolean: " +
                    PrintExpr(pred));
  }
}

// Computes the output environment of a plan node per Figure 6 and validates
// predicates/paths along the way.
TypeEnv PlanEnv(const AlgPtr& op, const Schema& schema) {
  LDB_INTERNAL_CHECK(op != nullptr, "null plan node");
  switch (op->kind) {
    case AlgKind::kUnit:
      return {};
    case AlgKind::kScan: {
      const ClassDecl* cls = schema.FindExtent(op->extent);
      if (!cls) throw TypeError("scan of unknown extent '" + op->extent + "'");
      TypeEnv env{{op->var, Type::Class(cls->name)}};
      RequireBool(op->pred, schema, env, "scan");
      return env;
    }
    case AlgKind::kSelect: {
      TypeEnv env = PlanEnv(op->left, schema);
      RequireBool(op->pred, schema, env, "select");
      return env;
    }
    case AlgKind::kJoin:
    case AlgKind::kOuterJoin: {
      TypeEnv env = PlanEnv(op->left, schema);
      TypeEnv right = PlanEnv(op->right, schema);
      for (const auto& [v, t] : right) {
        if (!env.emplace(v, t).second) {
          throw TypeError("join binds variable '" + v + "' on both sides");
        }
      }
      RequireBool(op->pred, schema, env, "join");
      return env;
    }
    case AlgKind::kUnnest:
    case AlgKind::kOuterUnnest: {
      TypeEnv env = PlanEnv(op->left, schema);
      TypePtr path = TypeCheck(op->path, schema, env);
      TypePtr elem;
      if (path->is_collection()) {
        elem = path->elem();
      } else if (path->kind() == Type::Kind::kAny) {
        elem = Type::Any();
      } else {
        throw TypeError("unnest path is not a collection: " +
                        PrintExpr(op->path));
      }
      if (!env.emplace(op->var, elem).second) {
        throw TypeError("unnest rebinds variable '" + op->var + "'");
      }
      RequireBool(op->pred, schema, env, "unnest");
      return env;
    }
    case AlgKind::kNest: {
      TypeEnv env = PlanEnv(op->left, schema);
      for (const std::string& v : op->null_vars) {
        if (env.find(v) == env.end()) {
          throw TypeError("nest null-variable '" + v + "' is not in scope");
        }
      }
      RequireBool(op->pred, schema, env, "nest");
      TypePtr head = TypeCheck(op->head, schema, env);
      if (TypePtr constraint = MonoidHeadConstraint(op->monoid)) {
        if (!Type::Unify(head, constraint)) {
          throw TypeError(std::string("nest head incompatible with ") +
                          MonoidName(op->monoid));
        }
      }
      TypeEnv out;
      for (const auto& [name, key] : op->group_by) {
        out[name] = TypeCheck(key, schema, env);
      }
      if (!out.emplace(op->var, MonoidResultType(op->monoid, head)).second) {
        throw TypeError("nest output variable collides with a group-by name");
      }
      return out;
    }
    case AlgKind::kReduce:
      throw TypeError("reduce may only appear at the plan root");
  }
  throw TypeError("unhandled plan node");
}

}  // namespace

TypeEnv PlanOutputEnv(const AlgPtr& op, const Schema& schema) {
  return PlanEnv(op, schema);
}

TypePtr TypeCheckPlan(const AlgPtr& plan, const Schema& schema) {
  if (!plan || plan->kind != AlgKind::kReduce) {
    throw TypeError("plan root must be a reduce");
  }
  TypeEnv env = PlanEnv(plan->left, schema);
  RequireBool(plan->pred, schema, env, "reduce");
  TypePtr head = TypeCheck(plan->head, schema, env);
  if (TypePtr constraint = MonoidHeadConstraint(plan->monoid)) {
    if (!Type::Unify(head, constraint)) {
      throw TypeError(std::string("reduce head incompatible with ") +
                      MonoidName(plan->monoid));
    }
  }
  return MonoidResultType(plan->monoid, head);
}

}  // namespace ldb
