// Unit tests for the calculus interpreter (src/runtime/expr_eval.*): the
// D-rules, NULL discipline, arithmetic, short-circuiting, and environments.

#include "src/runtime/expr_eval.h"

#include <gtest/gtest.h>

#include "src/runtime/error.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

ExprPtr V(const std::string& n) { return Expr::Var(n); }

class ExprEvalTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();
  ExprEvaluator ev_{db_};

  Value Eval(const ExprPtr& e) { return ev_.Eval(e, Env()); }
  Value EvalIn(const ExprPtr& e, const Env& env) { return ev_.Eval(e, env); }
};

TEST_F(ExprEvalTest, EnvBindingAndShadowing) {
  Env env;
  env.Bind("x", Value::Int(1));
  env.Bind("x", Value::Int(2));  // later binding shadows
  EXPECT_EQ(*env.Lookup("x"), Value::Int(2));
  EXPECT_EQ(env.Lookup("y"), nullptr);
  Env extended = env.With("y", Value::Int(3));
  EXPECT_EQ(*extended.Lookup("y"), Value::Int(3));
  EXPECT_EQ(env.Lookup("y"), nullptr);  // With copies
}

TEST_F(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kAdd, Expr::Int(2), Expr::Int(3))),
            Value::Int(5));
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kMul, Expr::Int(2), Expr::Real(1.5))),
            Value::Real(3.0));
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kDiv, Expr::Int(7), Expr::Int(2))),
            Value::Int(3));  // integer division
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kMod, Expr::Int(7), Expr::Int(3))),
            Value::Int(1));
  EXPECT_EQ(Eval(Expr::Un(UnOpKind::kNeg, Expr::Int(4))), Value::Int(-4));
}

TEST_F(ExprEvalTest, DivisionByZeroThrows) {
  EXPECT_THROW(Eval(Expr::Bin(BinOpKind::kDiv, Expr::Int(1), Expr::Int(0))),
               EvalError);
  EXPECT_THROW(Eval(Expr::Bin(BinOpKind::kMod, Expr::Int(1), Expr::Int(0))),
               EvalError);
}

// Integer arithmetic never wraps or traps: a result outside int64 is an
// EvalError, including INT64_MIN / -1 and INT64_MIN mod -1, which divide in
// hardware by raising SIGFPE.
TEST_F(ExprEvalTest, IntegerOverflowThrows) {
  const ExprPtr min = Expr::Int(INT64_MIN), max = Expr::Int(INT64_MAX);
  const ExprPtr minus_one = Expr::Int(-1);
  const ExprPtr overflowing[] = {
      Expr::Bin(BinOpKind::kDiv, min, minus_one),
      Expr::Bin(BinOpKind::kMod, min, minus_one),
      Expr::Bin(BinOpKind::kAdd, max, Expr::Int(1)),
      Expr::Bin(BinOpKind::kSub, min, Expr::Int(1)),
      Expr::Bin(BinOpKind::kMul, max, Expr::Int(2)),
      Expr::Bin(BinOpKind::kMul, min, minus_one),
      Expr::Un(UnOpKind::kNeg, min),
  };
  for (const ExprPtr& e : overflowing) EXPECT_THROW(Eval(e), EvalError);
  // The largest results that fit are still exact.
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kDiv, min, Expr::Int(1))),
            Value::Int(INT64_MIN));
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kMod, Expr::Int(-7), Expr::Int(-1))),
            Value::Int(0));
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kAdd, max, Expr::Int(-1))),
            Value::Int(INT64_MAX - 1));
  EXPECT_EQ(Eval(Expr::Un(UnOpKind::kNeg, max)), Value::Int(-INT64_MAX));
}

TEST_F(ExprEvalTest, NullPropagation) {
  // Arithmetic with NULL yields NULL; comparisons with NULL are false.
  EXPECT_TRUE(Eval(Expr::Bin(BinOpKind::kAdd, Expr::Null(), Expr::Int(1))).is_null());
  EXPECT_EQ(Eval(Expr::Eq(Expr::Null(), Expr::Null())), Value::Bool(false));
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kGe, Expr::Null(), Expr::Int(0))),
            Value::Bool(false));
  EXPECT_EQ(Eval(Expr::Un(UnOpKind::kIsNull, Expr::Null())), Value::Bool(true));
  EXPECT_EQ(Eval(Expr::Un(UnOpKind::kNeg, Expr::Null())), Value::Null());
  // not(NULL-as-predicate) is true, consistently with EvalPred.
  EXPECT_EQ(Eval(Expr::Not(Expr::Null())), Value::Bool(true));
}

TEST_F(ExprEvalTest, ShortCircuit) {
  // RHS would throw (division by zero) if evaluated.
  ExprPtr boom = Expr::Eq(Expr::Bin(BinOpKind::kDiv, Expr::Int(1), Expr::Int(0)),
                          Expr::Int(1));
  EXPECT_EQ(Eval(Expr::And(Expr::False(), boom)), Value::Bool(false));
  EXPECT_EQ(Eval(Expr::Bin(BinOpKind::kOr, Expr::True(), boom)),
            Value::Bool(true));
}

TEST_F(ExprEvalTest, RecordAndProjection) {
  ExprPtr rec = Expr::Record({{"a", Expr::Int(1)}, {"b", Expr::Str("x")}});
  EXPECT_EQ(Eval(Expr::Proj(rec, "b")), Value::Str("x"));
}

TEST_F(ExprEvalTest, PathNavigationThroughRefs) {
  Env env;
  env.Bind("e", db_.Extent("Employees")[0]);  // Ann
  EXPECT_EQ(EvalIn(Expr::Proj(V("e"), "name"), env), Value::Str("Ann"));
  EXPECT_EQ(EvalIn(Expr::Path(V("e"), {"manager", "name"}), env),
            Value::Str("Meg"));
  // NULL manager navigation (Cal is Employees[2]).
  Env env2;
  env2.Bind("e", db_.Extent("Employees")[2]);
  EXPECT_TRUE(EvalIn(Expr::Path(V("e"), {"manager", "name"}), env2).is_null());
}

TEST_F(ExprEvalTest, ExtentLookupAndCaching) {
  Value employees = Eval(V("Employees"));
  ASSERT_EQ(employees.kind(), Value::Kind::kSet);
  EXPECT_EQ(employees.AsElems().size(), 4u);
  // Second evaluation uses the cache and yields the identical value.
  EXPECT_EQ(Eval(V("Employees")), employees);
  EXPECT_THROW(Eval(V("NoSuchThing")), EvalError);
}

TEST_F(ExprEvalTest, ComprehensionNestedLoops) {
  // sum{ c.age | e <- Employees, c <- e.children }
  ExprPtr q = Expr::Comp(
      MonoidKind::kSum, Expr::Proj(V("c"), "age"),
      {Qualifier::Generator("e", V("Employees")),
       Qualifier::Generator("c", Expr::Proj(V("e"), "children"))});
  // Ann: Al(5) + Amy(25); Cal: Cam(30); Dee: Dan(10) = 70.
  EXPECT_EQ(Eval(q), Value::Int(70));
}

TEST_F(ExprEvalTest, GeneratorOverNullDomainYieldsZero) {
  Env env;
  env.Bind("x", Value::Null());
  ExprPtr q = Expr::Comp(MonoidKind::kSum, Expr::Int(1),
                         {Qualifier::Generator("v", V("x"))});
  EXPECT_EQ(EvalIn(q, env), Value::Int(0));
  ExprPtr all = Expr::Comp(MonoidKind::kAll, Expr::False(),
                           {Qualifier::Generator("v", V("x"))});
  EXPECT_EQ(EvalIn(all, env), Value::Bool(true));  // zero of all
}

TEST_F(ExprEvalTest, QuantifierShortCircuitAcrossGenerators) {
  // some over Employees x Employees stops at the first satisfying pair, so
  // even a would-be O(n^2) check is fast; semantically it is just true.
  ExprPtr q = Expr::Comp(
      MonoidKind::kSome, Expr::True(),
      {Qualifier::Generator("a", V("Employees")),
       Qualifier::Generator("b", V("Employees"))});
  EXPECT_EQ(Eval(q), Value::Bool(true));
}

TEST_F(ExprEvalTest, MergeAndZero) {
  ExprPtr m = Expr::Merge(MonoidKind::kSet,
                          Expr::Lit(Value::Set({Value::Int(1)})),
                          Expr::Lit(Value::Set({Value::Int(2)})));
  EXPECT_EQ(Eval(m), Value::Set({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(Eval(Expr::Zero(MonoidKind::kSum)), Value::Int(0));
}

TEST_F(ExprEvalTest, IfSelectsBranch) {
  EXPECT_EQ(Eval(Expr::If(Expr::True(), Expr::Int(1), Expr::Int(2))),
            Value::Int(1));
  // NULL condition is false-y.
  EXPECT_EQ(Eval(Expr::If(Expr::Null(), Expr::Int(1), Expr::Int(2))),
            Value::Int(2));
}

TEST_F(ExprEvalTest, ApplyBetaReducesAtRuntime) {
  ExprPtr apply = Expr::Apply(
      Expr::Lambda("x", Expr::Bin(BinOpKind::kAdd, V("x"), Expr::Int(1))),
      Expr::Int(41));
  EXPECT_EQ(Eval(apply), Value::Int(42));
  EXPECT_THROW(Eval(Expr::Lambda("x", V("x"))), EvalError);
  EXPECT_THROW(Eval(Expr::Apply(Expr::Int(1), Expr::Int(2))), EvalError);
}

TEST_F(ExprEvalTest, EvalPredOnNullIsFalse) {
  EXPECT_FALSE(ev_.EvalPred(Expr::Null(), Env()));
  EXPECT_TRUE(ev_.EvalPred(Expr::True(), Env()));
  EXPECT_THROW(ev_.EvalPred(Expr::Int(3), Env()), EvalError);
}

TEST_F(ExprEvalTest, AvgComprehension) {
  ExprPtr q = Expr::Comp(MonoidKind::kAvg, Expr::Proj(V("e"), "age"),
                         {Qualifier::Generator("e", V("Employees"))});
  EXPECT_EQ(Eval(q), Value::Real((30 + 40 + 25 + 55) / 4.0));
}

TEST_F(ExprEvalTest, FilterBetweenGenerators) {
  // Generators after a failing filter never run.
  ExprPtr q = Expr::Comp(
      MonoidKind::kSum, Expr::Int(1),
      {Qualifier::Generator("e", V("Employees")),
       Qualifier::Filter(Expr::Bin(BinOpKind::kGt, Expr::Proj(V("e"), "age"),
                                   Expr::Int(100))),
       Qualifier::Generator("c", Expr::Proj(V("e"), "children"))});
  EXPECT_EQ(Eval(q), Value::Int(0));
}

}  // namespace
}  // namespace ldb
