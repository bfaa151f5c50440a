// Unit tests for the calculus AST utilities: free variables, substitution
// (capture avoidance), structural equality, plan-key identity, paths,
// conjunct handling (src/core/expr.*), and the pretty printer
// (src/core/pretty.*).

#include "src/core/expr.h"

#include <gtest/gtest.h>

#include "src/core/pretty.h"

namespace ldb {
namespace {

ExprPtr V(const std::string& n) { return Expr::Var(n); }

TEST(ExprTest, FreeVarsSimple) {
  ExprPtr e = Expr::Eq(Expr::Proj(V("x"), "a"), V("y"));
  std::set<std::string> fv = FreeVars(e);
  EXPECT_EQ(fv, (std::set<std::string>{"x", "y"}));
}

TEST(ExprTest, FreeVarsGeneratorBindsTail) {
  // set{ x.a | x <- X, x.b = y }: x bound, X and y free.
  ExprPtr comp = Expr::Comp(
      MonoidKind::kSet, Expr::Proj(V("x"), "a"),
      {Qualifier::Generator("x", V("X")),
       Qualifier::Filter(Expr::Eq(Expr::Proj(V("x"), "b"), V("y")))});
  EXPECT_EQ(FreeVars(comp), (std::set<std::string>{"X", "y"}));
}

TEST(ExprTest, FreeVarsGeneratorDomainNotBound) {
  // The generator's own domain sees outer bindings: set{ x | x <- x.kids }
  // has free x in the domain.
  ExprPtr comp = Expr::Comp(MonoidKind::kSet, V("x"),
                            {Qualifier::Generator("x", Expr::Proj(V("x"), "kids"))});
  EXPECT_EQ(FreeVars(comp), (std::set<std::string>{"x"}));
}

TEST(ExprTest, FreeVarsLambda) {
  ExprPtr lam = Expr::Lambda("v", Expr::Eq(V("v"), V("w")));
  EXPECT_EQ(FreeVars(lam), (std::set<std::string>{"w"}));
}

TEST(ExprTest, SubstReplacesFreeOccurrences) {
  ExprPtr e = Expr::Eq(V("x"), Expr::Proj(V("x"), "a"));
  ExprPtr out = Subst(e, "x", V("z"));
  EXPECT_TRUE(ExprEqual(out, Expr::Eq(V("z"), Expr::Proj(V("z"), "a"))));
}

TEST(ExprTest, SubstRespectsGeneratorShadowing) {
  // In set{ x | x <- D, x = y }, substituting for x must not touch the bound
  // occurrences; substituting into the domain is fine.
  ExprPtr comp = Expr::Comp(MonoidKind::kSet, V("x"),
                            {Qualifier::Generator("x", V("x")),
                             Qualifier::Filter(Expr::Eq(V("x"), V("y")))});
  ExprPtr out = Subst(comp, "x", V("q"));
  // Domain becomes q, bound occurrences unchanged.
  EXPECT_EQ(out->quals[0].expr->name, "q");
  EXPECT_EQ(out->quals[1].expr->a->name, "x");
  EXPECT_EQ(out->a->name, "x");
}

TEST(ExprTest, SubstAvoidsCaptureInComp) {
  // Substituting y := x into set{ y | x <- D } must rename the binder x.
  ExprPtr comp = Expr::Comp(MonoidKind::kSet, V("y"),
                            {Qualifier::Generator("x", V("D"))});
  ExprPtr out = Subst(comp, "y", V("x"));
  ASSERT_EQ(out->quals.size(), 1u);
  EXPECT_NE(out->quals[0].var, "x");           // binder renamed
  EXPECT_EQ(out->a->name, "x");                // the substituted free x
}

TEST(ExprTest, SubstAvoidsCaptureInLambda) {
  ExprPtr lam = Expr::Lambda("x", Expr::Bin(BinOpKind::kAdd, V("x"), V("y")));
  ExprPtr out = Subst(lam, "y", V("x"));
  EXPECT_NE(out->name, "x");  // lambda binder renamed
  // Body: renamed + x.
  EXPECT_EQ(out->a->b->name, "x");
  EXPECT_EQ(out->a->a->name, out->name);
}

TEST(ExprTest, SubstShadowedLambda) {
  ExprPtr lam = Expr::Lambda("x", V("x"));
  EXPECT_TRUE(ExprEqual(Subst(lam, "x", V("z")), lam));
}

TEST(ExprTest, ExprEqualStructural) {
  ExprPtr a = Expr::And(Expr::Eq(V("x"), Expr::Int(1)), Expr::True());
  ExprPtr b = Expr::And(Expr::Eq(V("x"), Expr::Int(1)), Expr::True());
  ExprPtr c = Expr::And(Expr::Eq(V("y"), Expr::Int(1)), Expr::True());
  EXPECT_TRUE(ExprEqual(a, b));
  EXPECT_FALSE(ExprEqual(a, c));
}

// ------------------------------------------------------ plan-key identity

struct KeyCase {
  KeyCase(ExprPtr t, ExprPtr tw = nullptr)
      : term(std::move(t)), twin(std::move(tw)) {}
  ExprPtr term;
  ExprPtr twin;  ///< prints like `term` but is another query; may be null
};

// One term of every ExprKind, built fresh on each call. `lam`, `emp` and
// `gen` name the variables that the lambda and the two comprehensions bind,
// so calls with different names build alpha-variants.
std::vector<KeyCase> KeyCorpus(const std::string& lam, const std::string& emp,
                               const std::string& gen) {
  auto add = [](ExprPtr l, ExprPtr r) {
    return Expr::Bin(BinOpKind::kAdd, std::move(l), std::move(r));
  };
  return {
      {V("x")},
      {Expr::Param("min_age")},
      {Expr::Int(42), Expr::Real(42)},
      {Expr::Int(-7), Expr::Real(-7)},
      {Expr::Real(1.5), Expr::Real(1.5000001)},
      {add(Expr::Real(1234567.1), Expr::Real(0)),
       add(Expr::Real(1234567.4), Expr::Real(0))},
      {Expr::Str("hello world")},
      {Expr::True()},
      {Expr::Null()},
      {Expr::Zero(MonoidKind::kBag)},
      {Expr::Proj(Expr::Proj(V("e"), "manager"), "name")},
      {add(Expr::Int(1),
           Expr::Bin(BinOpKind::kMul, V("x"), Expr::Int(2))),
       add(Expr::Int(1),
           Expr::Bin(BinOpKind::kMul, V("x"), Expr::Real(2)))},
      {Expr::Bin(BinOpKind::kMod, V("x"), Expr::Int(3))},
      {Expr::Un(UnOpKind::kNot, V("p"))},
      {Expr::Un(UnOpKind::kNeg, V("x"))},
      {Expr::Un(UnOpKind::kIsNull, Expr::Proj(V("e"), "manager"))},
      {Expr::If(V("p"), Expr::Int(1), Expr::Int(2))},
      {Expr::Record({{"a", V("x")}, {"b", Expr::Int(2)}})},
      {Expr::Record({{"a", Expr::Str("x")}, {"b", Expr::Str("y")}}),
       Expr::Record({{"a", Expr::Str("x\", b=\"y")}})},
      {Expr::Lambda(lam, Expr::Bin(BinOpKind::kGt, V(lam), Expr::Int(0)))},
      {Expr::Apply(V("f"), V("x"))},
      {Expr::Merge(MonoidKind::kSet, V("a"), V("b"))},
      {Expr::Comp(MonoidKind::kSum, Expr::Proj(V(emp), "salary"),
                  {Qualifier::Generator(emp, V("Employees")),
                   Qualifier::Filter(Expr::Bin(BinOpKind::kGe,
                                               Expr::Proj(V(emp), "age"),
                                               Expr::Param("min_age")))})},
      {Expr::Singleton(MonoidKind::kList, V("x"))},
      {Expr::Comp(MonoidKind::kSet, V(gen),
                  {Qualifier::Generator(gen, V("Employees"))})},
  };
}

TEST(PlanKeyTest, CorpusTermsAreTheirOwnKeysUpToBoundNames) {
  const std::vector<KeyCase> terms = KeyCorpus("v", "e", "v$17");
  const std::vector<KeyCase> copies = KeyCorpus("v", "e", "v$17");
  const std::vector<KeyCase> variants = KeyCorpus("w", "emp", "v$99");
  for (size_t i = 0; i < terms.size(); ++i) {
    const ExprPtr& t = terms[i].term;
    SCOPED_TRACE(PrintExpr(t));
    EXPECT_TRUE(ExprKeyEqual(t, copies[i].term));
    EXPECT_EQ(ExprKeyHash(t), ExprKeyHash(copies[i].term));
    EXPECT_TRUE(ExprKeyEqual(t, variants[i].term));
    EXPECT_EQ(ExprKeyHash(t), ExprKeyHash(variants[i].term));
    for (size_t j = 0; j < terms.size(); ++j) {
      if (j != i) {
        EXPECT_FALSE(ExprKeyEqual(t, terms[j].term)) << j;
      }
    }
    if (terms[i].twin != nullptr) {
      // The printed key could not tell the twin apart.
      EXPECT_EQ(PrintExpr(terms[i].twin), PrintExpr(t));
      EXPECT_FALSE(ExprKeyEqual(t, terms[i].twin));
      EXPECT_FALSE(ExprKeyEqual(terms[i].twin, t));
    }
  }
  // The renamed binders are what ExprEqual (alpha-sensitive) still sees.
  EXPECT_FALSE(ExprEqual(terms.back().term, variants.back().term));
}

TEST(PlanKeyTest, BoundVariablesCompareByBinderPosition) {
  auto lam2 = [](const char* a, const char* b, const char* body) {
    return Expr::Lambda(a, Expr::Lambda(b, V(body)));
  };
  // \x. \y. x is \a. \b. a, not \a. \b. b.
  EXPECT_TRUE(ExprKeyEqual(lam2("x", "y", "x"), lam2("a", "b", "a")));
  EXPECT_FALSE(ExprKeyEqual(lam2("x", "y", "x"), lam2("a", "b", "b")));
  // A free variable matches only itself, never a bound one.
  auto set1 = [](const char* head, const char* var, ExprPtr dom) {
    return Expr::Comp(MonoidKind::kSet, V(head),
                      {Qualifier::Generator(var, std::move(dom))});
  };
  EXPECT_FALSE(ExprKeyEqual(set1("x", "y", V("Y")), set1("z", "z", V("Y"))));
  EXPECT_FALSE(ExprKeyEqual(set1("x", "y", V("Y")), set1("z", "y", V("Y"))));
  // A generator's domain sees the enclosing scope, not its own variable.
  EXPECT_TRUE(ExprKeyEqual(set1("x", "x", Expr::Proj(V("x"), "kids")),
                           set1("y", "y", Expr::Proj(V("x"), "kids"))));
  EXPECT_FALSE(ExprKeyEqual(set1("x", "x", Expr::Proj(V("x"), "kids")),
                            set1("y", "y", Expr::Proj(V("y"), "kids"))));
  // An inner binder shadows an outer one of the same name.
  auto nested = [](const char* a, const char* b, const char* head) {
    return Expr::Comp(MonoidKind::kSet, V(head),
                      {Qualifier::Generator(a, V("X")),
                       Qualifier::Generator(b, Expr::Proj(V(a), "kids"))});
  };
  EXPECT_TRUE(ExprKeyEqual(nested("x", "x", "x"), nested("a", "b", "b")));
  EXPECT_EQ(ExprKeyHash(nested("x", "x", "x")),
            ExprKeyHash(nested("a", "b", "b")));
  EXPECT_FALSE(ExprKeyEqual(nested("x", "x", "x"), nested("a", "b", "a")));
}

TEST(ExprTest, ContainsComp) {
  ExprPtr comp = Expr::Comp(MonoidKind::kSum, Expr::Int(1), {});
  EXPECT_TRUE(ContainsComp(comp));
  EXPECT_TRUE(ContainsComp(Expr::Eq(V("x"), comp)));
  EXPECT_TRUE(ContainsComp(Expr::Record({{"a", comp}})));
  EXPECT_FALSE(ContainsComp(Expr::Eq(V("x"), Expr::Int(1))));
}

TEST(ExprTest, IsPath) {
  std::string root;
  std::vector<std::string> attrs;
  EXPECT_TRUE(IsPath(V("e"), &root, &attrs));
  EXPECT_EQ(root, "e");
  EXPECT_TRUE(attrs.empty());

  ExprPtr p = Expr::Proj(Expr::Proj(V("e"), "manager"), "children");
  EXPECT_TRUE(IsPath(p, &root, &attrs));
  EXPECT_EQ(root, "e");
  EXPECT_EQ(attrs, (std::vector<std::string>{"manager", "children"}));

  EXPECT_FALSE(IsPath(Expr::Eq(V("x"), V("y")), &root, &attrs));
  EXPECT_FALSE(IsPath(Expr::Proj(Expr::Int(1), "a"), &root, &attrs));
}

TEST(ExprTest, PathBuilder) {
  ExprPtr p = Expr::Path(V("e"), {"a", "b"});
  EXPECT_EQ(PrintExpr(p), "e.a.b");
}

TEST(ExprTest, SplitAndMakeConjunction) {
  ExprPtr a = Expr::Eq(V("x"), Expr::Int(1));
  ExprPtr b = Expr::Eq(V("y"), Expr::Int(2));
  ExprPtr c = Expr::Eq(V("z"), Expr::Int(3));
  ExprPtr conj = Expr::And(Expr::And(a, b), c);
  std::vector<ExprPtr> parts = SplitConjuncts(conj);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_TRUE(ExprEqual(parts[0], a));
  EXPECT_TRUE(ExprEqual(parts[2], c));

  EXPECT_TRUE(SplitConjuncts(Expr::True()).empty());
  EXPECT_TRUE(MakeConjunction({})->IsTrueLiteral());
  EXPECT_TRUE(ExprEqual(MakeConjunction({a}), a));
  EXPECT_TRUE(ExprEqual(MakeConjunction({Expr::True(), a}), a));
}

TEST(ExprTest, GensymNamesCannotCollideWithOQLIdentifiers) {
  std::string n = Gensym::Fresh("v");
  EXPECT_NE(n.find('$'), std::string::npos);
}

TEST(ExprTest, TrueFalseLiteralPredicates) {
  EXPECT_TRUE(Expr::True()->IsTrueLiteral());
  EXPECT_FALSE(Expr::True()->IsFalseLiteral());
  EXPECT_TRUE(Expr::False()->IsFalseLiteral());
  EXPECT_FALSE(Expr::Int(1)->IsTrueLiteral());
}

TEST(PrettyTest, PrintsComprehension) {
  ExprPtr comp = Expr::Comp(
      MonoidKind::kSet,
      Expr::Record({{"E", Expr::Proj(V("e"), "name")}}),
      {Qualifier::Generator("e", V("Employees")),
       Qualifier::Filter(Expr::Bin(BinOpKind::kGt, Expr::Proj(V("e"), "age"),
                                   Expr::Int(30)))});
  EXPECT_EQ(PrintExpr(comp),
            "set{ <E=e.name> | e <- Employees, (e.age > 30) }");
}

TEST(PrettyTest, PrintsQuantifiersAndZero) {
  ExprPtr comp = Expr::Comp(MonoidKind::kAll, Expr::True(),
                            {Qualifier::Generator("a", V("A"))});
  EXPECT_EQ(PrintExpr(comp), "all{ true | a <- A }");
  EXPECT_EQ(PrintExpr(Expr::Zero(MonoidKind::kSome)), "zero[some]");
  EXPECT_EQ(PrintExpr(Expr::Singleton(MonoidKind::kSet, Expr::Int(1))),
            "set{ 1 }");
}

TEST(PrettyTest, PrintsIfAndOps) {
  ExprPtr e = Expr::If(Expr::Un(UnOpKind::kIsNull, V("x")), Expr::Int(0),
                       Expr::Un(UnOpKind::kNeg, V("x")));
  EXPECT_EQ(PrintExpr(e), "if is_null(x) then 0 else -(x)");
}

}  // namespace
}  // namespace ldb
