#include "src/core/expr.h"

#include <atomic>
#include <cstring>

#include "src/runtime/error.h"

namespace ldb {

namespace {
std::shared_ptr<Expr> New(ExprKind k) {
  auto e = std::make_shared<Expr>();
  e->kind = k;
  return e;
}
}  // namespace

ExprPtr Expr::Var(std::string name) {
  auto e = New(ExprKind::kVar);
  e->name = std::move(name);
  return e;
}

ExprPtr Expr::Param(std::string name) {
  auto e = New(ExprKind::kParam);
  e->name = std::move(name);
  return e;
}

ExprPtr Expr::Lit(Value v) {
  auto e = New(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::Record(std::vector<std::pair<std::string, ExprPtr>> fields) {
  auto e = New(ExprKind::kRecord);
  e->fields = std::move(fields);
  return e;
}

ExprPtr Expr::Proj(ExprPtr base, std::string attr) {
  auto e = New(ExprKind::kProj);
  e->a = std::move(base);
  e->name = std::move(attr);
  return e;
}

ExprPtr Expr::If(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = New(ExprKind::kIf);
  e->a = std::move(cond);
  e->b = std::move(then_e);
  e->c = std::move(else_e);
  return e;
}

ExprPtr Expr::Bin(BinOpKind op, ExprPtr l, ExprPtr r) {
  auto e = New(ExprKind::kBinOp);
  e->bin_op = op;
  e->a = std::move(l);
  e->b = std::move(r);
  return e;
}

ExprPtr Expr::Un(UnOpKind op, ExprPtr x) {
  auto e = New(ExprKind::kUnOp);
  e->un_op = op;
  e->a = std::move(x);
  return e;
}

ExprPtr Expr::Lambda(std::string var, ExprPtr body) {
  auto e = New(ExprKind::kLambda);
  e->name = std::move(var);
  e->a = std::move(body);
  return e;
}

ExprPtr Expr::Apply(ExprPtr fn, ExprPtr arg) {
  auto e = New(ExprKind::kApply);
  e->a = std::move(fn);
  e->b = std::move(arg);
  return e;
}

ExprPtr Expr::Comp(MonoidKind m, ExprPtr head, std::vector<Qualifier> quals) {
  auto e = New(ExprKind::kComp);
  e->monoid = m;
  e->a = std::move(head);
  e->quals = std::move(quals);
  return e;
}

ExprPtr Expr::Merge(MonoidKind m, ExprPtr l, ExprPtr r) {
  auto e = New(ExprKind::kMerge);
  e->monoid = m;
  e->a = std::move(l);
  e->b = std::move(r);
  return e;
}

ExprPtr Expr::Zero(MonoidKind m) {
  auto e = New(ExprKind::kZero);
  e->monoid = m;
  return e;
}

ExprPtr Expr::Path(ExprPtr base, const std::vector<std::string>& attrs) {
  ExprPtr e = std::move(base);
  for (const std::string& a : attrs) e = Proj(e, a);
  return e;
}

bool Expr::IsTrueLiteral() const {
  return kind == ExprKind::kLiteral && literal.kind() == Value::Kind::kBool &&
         literal.AsBool();
}

bool Expr::IsFalseLiteral() const {
  return kind == ExprKind::kLiteral && literal.kind() == Value::Kind::kBool &&
         !literal.AsBool();
}

const char* BinOpName(BinOpKind op) {
  switch (op) {
    case BinOpKind::kEq:  return "=";
    case BinOpKind::kNe:  return "!=";
    case BinOpKind::kLt:  return "<";
    case BinOpKind::kLe:  return "<=";
    case BinOpKind::kGt:  return ">";
    case BinOpKind::kGe:  return ">=";
    case BinOpKind::kAnd: return "and";
    case BinOpKind::kOr:  return "or";
    case BinOpKind::kAdd: return "+";
    case BinOpKind::kSub: return "-";
    case BinOpKind::kMul: return "*";
    case BinOpKind::kDiv: return "/";
    case BinOpKind::kMod: return "mod";
  }
  return "?";
}

const char* UnOpName(UnOpKind op) {
  switch (op) {
    case UnOpKind::kNot:    return "not";
    case UnOpKind::kNeg:    return "-";
    case UnOpKind::kIsNull: return "is_null";
  }
  return "?";
}

namespace {
std::atomic<uint64_t> g_gensym_counter{0};
}  // namespace

std::string Gensym::Fresh(const std::string& stem) {
  return stem + "$" + std::to_string(g_gensym_counter.fetch_add(1));
}

void Gensym::Reset() { g_gensym_counter.store(0); }

namespace {

void CollectFreeVars(const ExprPtr& e, std::set<std::string>* bound,
                     std::set<std::string>* out) {
  if (!e) return;
  switch (e->kind) {
    case ExprKind::kVar:
      if (bound->count(e->name) == 0) out->insert(e->name);
      return;
    case ExprKind::kLiteral:
    case ExprKind::kZero:
    case ExprKind::kParam:
      return;
    case ExprKind::kRecord:
      for (const auto& [n, f] : e->fields) CollectFreeVars(f, bound, out);
      return;
    case ExprKind::kLambda: {
      bool inserted = bound->insert(e->name).second;
      CollectFreeVars(e->a, bound, out);
      if (inserted) bound->erase(e->name);
      return;
    }
    case ExprKind::kComp: {
      // Generators bind their variable in subsequent qualifiers and the head.
      std::vector<std::string> newly_bound;
      for (const Qualifier& q : e->quals) {
        CollectFreeVars(q.expr, bound, out);
        if (q.is_generator && bound->insert(q.var).second) {
          newly_bound.push_back(q.var);
        }
      }
      CollectFreeVars(e->a, bound, out);
      for (const std::string& v : newly_bound) bound->erase(v);
      return;
    }
    default:
      CollectFreeVars(e->a, bound, out);
      CollectFreeVars(e->b, bound, out);
      CollectFreeVars(e->c, bound, out);
      return;
  }
}

}  // namespace

std::set<std::string> FreeVars(const ExprPtr& e) {
  std::set<std::string> bound, out;
  CollectFreeVars(e, &bound, &out);
  return out;
}

ExprPtr Subst(const ExprPtr& e, const std::string& var, const ExprPtr& repl) {
  if (!e) return e;
  switch (e->kind) {
    case ExprKind::kVar:
      return e->name == var ? repl : e;
    case ExprKind::kLiteral:
    case ExprKind::kZero:
    case ExprKind::kParam:
      return e;
    case ExprKind::kRecord: {
      std::vector<std::pair<std::string, ExprPtr>> fields;
      fields.reserve(e->fields.size());
      for (const auto& [n, f] : e->fields) fields.emplace_back(n, Subst(f, var, repl));
      return Expr::Record(std::move(fields));
    }
    case ExprKind::kProj:
      return Expr::Proj(Subst(e->a, var, repl), e->name);
    case ExprKind::kIf:
      return Expr::If(Subst(e->a, var, repl), Subst(e->b, var, repl),
                      Subst(e->c, var, repl));
    case ExprKind::kBinOp:
      return Expr::Bin(e->bin_op, Subst(e->a, var, repl), Subst(e->b, var, repl));
    case ExprKind::kUnOp:
      return Expr::Un(e->un_op, Subst(e->a, var, repl));
    case ExprKind::kApply:
      return Expr::Apply(Subst(e->a, var, repl), Subst(e->b, var, repl));
    case ExprKind::kMerge:
      return Expr::Merge(e->monoid, Subst(e->a, var, repl), Subst(e->b, var, repl));
    case ExprKind::kLambda: {
      if (e->name == var) return e;  // shadowed
      if (FreeVars(repl).count(e->name) > 0) {
        // Capture: rename the lambda binder first.
        std::string fresh = Gensym::Fresh(e->name);
        ExprPtr body = Subst(e->a, e->name, Expr::Var(fresh));
        return Expr::Lambda(fresh, Subst(body, var, repl));
      }
      return Expr::Lambda(e->name, Subst(e->a, var, repl));
    }
    case ExprKind::kComp: {
      std::set<std::string> repl_free = FreeVars(repl);
      std::vector<Qualifier> quals = e->quals;
      ExprPtr head = e->a;
      for (size_t i = 0; i < quals.size(); ++i) {
        Qualifier& q = quals[i];
        q.expr = Subst(q.expr, var, repl);
        if (!q.is_generator) continue;
        if (q.var == var) {
          // var is shadowed from here on; done.
          return Expr::Comp(e->monoid, head, std::move(quals));
        }
        if (repl_free.count(q.var) > 0) {
          // Rename this generator's variable in the tail to avoid capture.
          std::string fresh = Gensym::Fresh(q.var);
          ExprPtr fresh_var = Expr::Var(fresh);
          for (size_t j = i + 1; j < quals.size(); ++j) {
            quals[j].expr = Subst(quals[j].expr, q.var, fresh_var);
          }
          head = Subst(head, q.var, fresh_var);
          q.var = fresh;
        }
      }
      head = Subst(head, var, repl);
      return Expr::Comp(e->monoid, head, std::move(quals));
    }
  }
  throw InternalError("bad expr kind in Subst");
}

bool ExprEqual(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case ExprKind::kVar:
    case ExprKind::kParam:
      return a->name == b->name;
    case ExprKind::kLiteral:
      return a->literal == b->literal;
    case ExprKind::kZero:
      return a->monoid == b->monoid;
    case ExprKind::kRecord: {
      if (a->fields.size() != b->fields.size()) return false;
      for (size_t i = 0; i < a->fields.size(); ++i) {
        if (a->fields[i].first != b->fields[i].first) return false;
        if (!ExprEqual(a->fields[i].second, b->fields[i].second)) return false;
      }
      return true;
    }
    case ExprKind::kProj:
      return a->name == b->name && ExprEqual(a->a, b->a);
    case ExprKind::kIf:
      return ExprEqual(a->a, b->a) && ExprEqual(a->b, b->b) && ExprEqual(a->c, b->c);
    case ExprKind::kBinOp:
      return a->bin_op == b->bin_op && ExprEqual(a->a, b->a) && ExprEqual(a->b, b->b);
    case ExprKind::kUnOp:
      return a->un_op == b->un_op && ExprEqual(a->a, b->a);
    case ExprKind::kLambda:
      return a->name == b->name && ExprEqual(a->a, b->a);
    case ExprKind::kApply:
      return ExprEqual(a->a, b->a) && ExprEqual(a->b, b->b);
    case ExprKind::kMerge:
      return a->monoid == b->monoid && ExprEqual(a->a, b->a) && ExprEqual(a->b, b->b);
    case ExprKind::kComp: {
      if (a->monoid != b->monoid) return false;
      if (a->quals.size() != b->quals.size()) return false;
      for (size_t i = 0; i < a->quals.size(); ++i) {
        const Qualifier& qa = a->quals[i];
        const Qualifier& qb = b->quals[i];
        if (qa.is_generator != qb.is_generator || qa.var != qb.var) return false;
        if (!ExprEqual(qa.expr, qb.expr)) return false;
      }
      return ExprEqual(a->a, b->a);
    }
  }
  return false;
}

namespace {

// The variables bound where a walk stands, outermost first: a generator's
// from the qualifier after it through the head, a lambda's in its body.
using Binders = std::vector<const std::string*>;

// Binder position of `name` (its innermost binding), or -1 when free.
int BinderOf(const Binders& scope, const std::string& name) {
  for (size_t i = scope.size(); i-- > 0;) {
    if (*scope[i] == name) return static_cast<int>(i);
  }
  return -1;
}

// Literal identity: stricter than Value's ==, which equates 7 and 7.0 and
// so would let queries with different answers share a plan. Literals are
// scalars (the OQL front end makes no other kind), and strings compare
// bytewise under ==.
bool SameLiteral(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.kind() != Value::Kind::kReal) return a == b;
  const double x = a.AsReal(), y = b.AsReal();
  return std::memcmp(&x, &y, sizeof x) == 0;
}

// Compares node fields by kind, then every child generically: an unused
// field is empty or null on both sides. Binders enter scope as they would in
// FreeVars: a lambda's for its body, a generator's for the qualifiers after
// it and the head.
class KeyEqual {
 public:
  bool Eq(const ExprPtr& a, const ExprPtr& b) {
    if (!a || !b) return a == b;
    if (a->kind != b->kind) return false;
    const size_t depth = scope_a_.size();
    switch (a->kind) {
      case ExprKind::kVar: {
        const int i = BinderOf(scope_a_, a->name);
        if (i != BinderOf(scope_b_, b->name)) return false;
        return i >= 0 || a->name == b->name;
      }
      case ExprKind::kLiteral:
        return SameLiteral(a->literal, b->literal);
      case ExprKind::kParam:
      case ExprKind::kProj:
        if (a->name != b->name) return false;
        break;
      case ExprKind::kBinOp:
        if (a->bin_op != b->bin_op) return false;
        break;
      case ExprKind::kUnOp:
        if (a->un_op != b->un_op) return false;
        break;
      case ExprKind::kZero:
      case ExprKind::kMerge:
      case ExprKind::kComp:
        if (a->monoid != b->monoid) return false;
        break;
      case ExprKind::kLambda:
        scope_a_.push_back(&a->name);
        scope_b_.push_back(&b->name);
        break;
      default:
        break;
    }
    bool eq = a->fields.size() == b->fields.size() &&
              a->quals.size() == b->quals.size();
    for (size_t i = 0; eq && i < a->fields.size(); ++i) {
      eq = a->fields[i].first == b->fields[i].first &&
           Eq(a->fields[i].second, b->fields[i].second);
    }
    for (size_t i = 0; eq && i < a->quals.size(); ++i) {
      const Qualifier& qa = a->quals[i];
      const Qualifier& qb = b->quals[i];
      eq = qa.is_generator == qb.is_generator && Eq(qa.expr, qb.expr);
      if (qa.is_generator) {
        scope_a_.push_back(&qa.var);
        scope_b_.push_back(&qb.var);
      }
    }
    eq = eq && Eq(a->a, b->a) && Eq(a->b, b->b) && Eq(a->c, b->c);
    scope_a_.resize(depth);
    scope_b_.resize(depth);
    return eq;
  }

 private:
  Binders scope_a_, scope_b_;
};

size_t HashName(const std::string& s) { return std::hash<std::string>{}(s); }

// Hashes exactly what KeyEqual compares, in the same walk.
class KeyHash {
 public:
  size_t Hash(const ExprPtr& e) {
    if (!e) return 0;
    size_t h = static_cast<size_t>(e->kind) + 1;
    const size_t depth = scope_.size();
    switch (e->kind) {
      case ExprKind::kVar: {
        const int i = BinderOf(scope_, e->name);
        return i >= 0 ? HashCombine(h, static_cast<size_t>(i))
                      : HashCombine(~h, HashName(e->name));
      }
      case ExprKind::kLiteral:
        // SameLiteral implies Value's ==, with which Hash is consistent.
        h = HashCombine(h, static_cast<size_t>(e->literal.kind()));
        return HashCombine(h, e->literal.Hash());
      case ExprKind::kParam:
      case ExprKind::kProj:
        h = HashCombine(h, HashName(e->name));
        break;
      case ExprKind::kBinOp:
        h = HashCombine(h, static_cast<size_t>(e->bin_op));
        break;
      case ExprKind::kUnOp:
        h = HashCombine(h, static_cast<size_t>(e->un_op));
        break;
      case ExprKind::kZero:
      case ExprKind::kMerge:
      case ExprKind::kComp:
        h = HashCombine(h, static_cast<size_t>(e->monoid));
        break;
      case ExprKind::kLambda:
        scope_.push_back(&e->name);
        break;
      default:
        break;
    }
    for (const auto& [n, f] : e->fields) {
      h = HashCombine(HashCombine(h, HashName(n)), Hash(f));
    }
    for (const Qualifier& q : e->quals) {
      h = HashCombine(HashCombine(h, q.is_generator ? 1 : 2), Hash(q.expr));
      if (q.is_generator) scope_.push_back(&q.var);
    }
    h = HashCombine(h, Hash(e->a));
    h = HashCombine(h, Hash(e->b));
    h = HashCombine(h, Hash(e->c));
    scope_.resize(depth);
    return h;
  }

 private:
  Binders scope_;
};

}  // namespace

bool ExprKeyEqual(const ExprPtr& a, const ExprPtr& b) {
  return KeyEqual().Eq(a, b);
}

size_t ExprKeyHash(const ExprPtr& e) { return KeyHash().Hash(e); }

bool ContainsComp(const ExprPtr& e) {
  if (!e) return false;
  if (e->kind == ExprKind::kComp) return true;
  for (const auto& [n, f] : e->fields) {
    if (ContainsComp(f)) return true;
  }
  for (const Qualifier& q : e->quals) {
    if (ContainsComp(q.expr)) return true;
  }
  return ContainsComp(e->a) || ContainsComp(e->b) || ContainsComp(e->c);
}

bool IsPath(const ExprPtr& e, std::string* root, std::vector<std::string>* attrs) {
  if (!e) return false;
  if (e->kind == ExprKind::kVar) {
    *root = e->name;
    attrs->clear();
    return true;
  }
  if (e->kind == ExprKind::kProj) {
    if (!IsPath(e->a, root, attrs)) return false;
    attrs->push_back(e->name);
    return true;
  }
  return false;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (!pred) return out;
  if (pred->kind == ExprKind::kBinOp && pred->bin_op == BinOpKind::kAnd) {
    auto l = SplitConjuncts(pred->a);
    auto r = SplitConjuncts(pred->b);
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }
  if (pred->IsTrueLiteral()) return out;
  out.push_back(pred);
  return out;
}

ExprPtr MakeConjunction(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    if (!c || c->IsTrueLiteral()) continue;
    out = out ? Expr::And(out, c) : c;
  }
  return out ? out : Expr::True();
}

}  // namespace ldb
