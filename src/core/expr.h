// The monoid comprehension calculus AST (Fegaras, SIGMOD'98, Section 2).
//
// A query in the calculus is a term built from variables, literals, records,
// projections, conditionals, operators, lambdas, and monoid comprehensions
// ⊕{ e | q1, ..., qn } where each qualifier is a generator `v <- e` or a
// filter predicate.
//
// Terms are immutable and shared (shared_ptr<const Expr>): rewrite passes
// build new spines and share unchanged subtrees, which also realizes the
// "graph reduction" sharing the paper appeals to for normalization (Sec. 2).

#ifndef LAMBDADB_CORE_EXPR_H_
#define LAMBDADB_CORE_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/monoid.h"
#include "src/runtime/value.h"

namespace ldb {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind {
  kVar,      ///< range variable or extent name
  kLiteral,  ///< constant Value (includes NULL)
  kRecord,   ///< (A1 = e1, ..., An = en)
  kProj,     ///< e.A
  kIf,       ///< if e1 then e2 else e3
  kBinOp,
  kUnOp,
  kLambda,   ///< λv. e
  kApply,    ///< e1(e2)
  kComp,     ///< ⊕{ e | q1, ..., qn }; no qualifiers = unit(e), e.g. {e}
  kMerge,    ///< e1 ⊕ e2
  kZero,     ///< Z⊕ (the zero element of a monoid, e.g. the empty set)
  kParam,    ///< $name / $1 — a query parameter bound at execute time
};

enum class BinOpKind {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv, kMod,
};

enum class UnOpKind {
  kNot,
  kNeg,
  kIsNull,  ///< the only null test the calculus provides (Section 2)
};

/// A comprehension qualifier: either a generator `var <- expr` (expr must
/// produce a collection) or a filter (expr must produce bool).
struct Qualifier {
  bool is_generator = false;
  std::string var;  // empty for filters
  ExprPtr expr;

  static Qualifier Generator(std::string v, ExprPtr domain) {
    return Qualifier{true, std::move(v), std::move(domain)};
  }
  static Qualifier Filter(ExprPtr pred) {
    return Qualifier{false, "", std::move(pred)};
  }
};

/// A calculus term. Construct via the factory functions below; fields not
/// applicable to a node's kind are default-initialized.
struct Expr {
  ExprKind kind;
  std::string name;            // kVar; attribute for kProj; lambda parameter
  Value literal;               // kLiteral
  MonoidKind monoid{};         // kComp, kMerge, kZero
  BinOpKind bin_op{};          // kBinOp
  UnOpKind un_op{};            // kUnOp
  std::vector<std::pair<std::string, ExprPtr>> fields;  // kRecord
  ExprPtr a, b, c;             // children (see factories)
  std::vector<Qualifier> quals;  // kComp

  // -- factories ------------------------------------------------------------
  static ExprPtr Var(std::string name);
  /// A query parameter placeholder ($1 / $name in OQL). Parameters are
  /// closed terms (not free variables): they survive every rewrite pass
  /// untouched and are resolved from the bindings at execute time.
  static ExprPtr Param(std::string name);
  static ExprPtr Lit(Value v);
  static ExprPtr Int(int64_t i) { return Lit(Value::Int(i)); }
  static ExprPtr Real(double d) { return Lit(Value::Real(d)); }
  static ExprPtr Bool(bool b) { return Lit(Value::Bool(b)); }
  static ExprPtr Str(std::string s) { return Lit(Value::Str(std::move(s))); }
  static ExprPtr Null() { return Lit(Value::Null()); }
  static ExprPtr True() { return Bool(true); }
  static ExprPtr False() { return Bool(false); }
  static ExprPtr Record(std::vector<std::pair<std::string, ExprPtr>> fields);
  static ExprPtr Proj(ExprPtr base, std::string attr);
  static ExprPtr If(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
  static ExprPtr Bin(BinOpKind op, ExprPtr l, ExprPtr r);
  static ExprPtr Un(UnOpKind op, ExprPtr e);
  static ExprPtr Lambda(std::string var, ExprPtr body);
  static ExprPtr Apply(ExprPtr fn, ExprPtr arg);
  static ExprPtr Comp(MonoidKind m, ExprPtr head, std::vector<Qualifier> quals);
  static ExprPtr Merge(MonoidKind m, ExprPtr l, ExprPtr r);
  static ExprPtr Zero(MonoidKind m);
  /// unit(e) for a collection monoid: the singleton {e}, encoded as a
  /// comprehension with no qualifiers (reduction rule D1).
  static ExprPtr Singleton(MonoidKind m, ExprPtr e) {
    return Comp(m, std::move(e), {});
  }

  // -- conveniences ----------------------------------------------------------
  static ExprPtr And(ExprPtr l, ExprPtr r) {
    return Bin(BinOpKind::kAnd, std::move(l), std::move(r));
  }
  static ExprPtr Eq(ExprPtr l, ExprPtr r) {
    return Bin(BinOpKind::kEq, std::move(l), std::move(r));
  }
  static ExprPtr Not(ExprPtr e) { return Un(UnOpKind::kNot, std::move(e)); }
  /// Builds base.a1.a2...an.
  static ExprPtr Path(ExprPtr base, const std::vector<std::string>& attrs);

  bool IsTrueLiteral() const;
  bool IsFalseLiteral() const;
};

/// Printable operator symbols.
const char* BinOpName(BinOpKind op);
const char* UnOpName(UnOpKind op);

/// Fresh-name source for rewriting passes. Generated names contain '$' which
/// the OQL lexer rejects, so they can never collide with user variables.
class Gensym {
 public:
  /// Returns e.g. "v$17".
  static std::string Fresh(const std::string& stem);
  /// Resets the counter (tests only; makes generated plans deterministic).
  static void Reset();
};

/// The free variables of a term. Generators bind their variable in the
/// remaining qualifiers and the head; lambdas bind their parameter. Extent
/// names appear free (the caller distinguishes them with a Schema).
std::set<std::string> FreeVars(const ExprPtr& e);

/// Capture-avoiding substitution e[replacement / var]: renames bound
/// variables (via Gensym) when they would capture free variables of
/// `replacement`.
ExprPtr Subst(const ExprPtr& e, const std::string& var, const ExprPtr& replacement);

/// Structural equality of terms (alpha-sensitive: variable names matter).
bool ExprEqual(const ExprPtr& a, const ExprPtr& b);

/// Plan identity (docs/SERVICE.md): structural equality up to the names of
/// bound variables. Variables bound by a generator or a lambda compare by
/// binder position; free variables, record fields, projections and
/// parameters by name; literals exactly (the same kind, reals bit for bit,
/// strings byte for byte), so `7` and `7.0` differ where ExprEqual
/// equates them.
bool ExprKeyEqual(const ExprPtr& a, const ExprPtr& b);

/// A hash consistent with ExprKeyEqual: key-equal terms hash alike.
size_t ExprKeyHash(const ExprPtr& e);

/// True if `e` contains a comprehension node (possibly `e` itself).
bool ContainsComp(const ExprPtr& e);

/// If `e` is a path x.A1...An (n >= 0), returns true and fills root/attrs.
bool IsPath(const ExprPtr& e, std::string* root, std::vector<std::string>* attrs);

/// Splits a predicate into its top-level conjuncts (flattening kAnd).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

/// Conjoins predicates; returns True() for an empty list and drops literal
/// `true` conjuncts.
ExprPtr MakeConjunction(const std::vector<ExprPtr>& conjuncts);

}  // namespace ldb

#endif  // LAMBDADB_CORE_EXPR_H_
