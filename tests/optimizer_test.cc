// Tests for the optimizer pipeline facade (src/core/optimizer.*): stage
// toggles (the ablation knobs), non-comprehension top levels, completeness
// enforcement, and the bag duplicate-safety check.

#include "src/core/optimizer.h"

#include <gtest/gtest.h>

#include "src/core/pretty.h"
#include "src/runtime/error.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();
};

TEST_F(OptimizerTest, CompileExposesAllStages) {
  Optimizer opt(db_.schema());
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct e.dno, avg(e.salary) from Employees e "
      "where e.age > 30 group by e.dno"));
  EXPECT_NE(q.calculus, nullptr);
  EXPECT_NE(q.normalized, nullptr);
  EXPECT_EQ(PlanShape(q.plan),
            "Reduce(Nest(OuterJoin(Scan(Employees),Scan(Employees))))");
  EXPECT_EQ(PlanShape(q.simplified), "Reduce(Nest(Scan(Employees)))");
  ASSERT_NE(q.result_type, nullptr);
  EXPECT_EQ(q.result_type->kind(), Type::Kind::kSet);
}

TEST_F(OptimizerTest, SimplifyToggleIsAnAblation) {
  OptimizerOptions no_simp;
  no_simp.simplify = false;
  Optimizer opt(db_.schema(), no_simp);
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct e.dno, avg(e.salary) from Employees e group by e.dno"));
  EXPECT_TRUE(AlgEqual(q.plan, q.simplified));
  // Result is unchanged either way.
  Optimizer opt2(db_.schema());
  CompiledQuery q2 = opt2.Compile(ParseOQL(
      "select distinct e.dno, avg(e.salary) from Employees e group by e.dno"));
  EXPECT_EQ(opt.Execute(q, db_), opt2.Execute(q2, db_));
}

TEST_F(OptimizerTest, NormalizeToggleStillUnnestsViaC8) {
  // Without normalization, existentials are not flattened by N8; the C8
  // splice must still remove all nesting and preserve the result.
  const char* q =
      "select distinct e.name from e in Employees "
      "where exists c in e.children: c.age > 20";
  OptimizerOptions no_norm;
  no_norm.normalize = false;
  Optimizer opt(db_.schema(), no_norm);
  CompiledQuery compiled = opt.Compile(ParseOQL(q));
  EXPECT_TRUE(IsFullyUnnested(compiled.plan));
  // The un-normalized plan uses an outer-unnest + nest instead of a plain
  // unnest: more operators.
  Optimizer norm(db_.schema());
  CompiledQuery normal = norm.Compile(ParseOQL(q));
  EXPECT_GT(PlanSize(compiled.plan), PlanSize(normal.plan));
  EXPECT_EQ(opt.Execute(compiled, db_), norm.Execute(normal, db_));
  EXPECT_EQ(norm.Execute(normal, db_),
            Value::Set({Value::Str("Ann"), Value::Str("Cal")}));
}

TEST_F(OptimizerTest, RunHandlesMixedTopLevel) {
  // A record of two aggregates is not a comprehension at the top.
  Optimizer opt(db_.schema());
  ExprPtr q = ParseOQL(
      "struct(total: sum(select e.salary from e in Employees), "
      "       headcount: count(select e from e in Employees))");
  Value r = opt.Run(q, db_);
  EXPECT_EQ(r.Field("total"), Value::Real(360000));
  EXPECT_EQ(r.Field("headcount"), Value::Int(4));
}

TEST_F(OptimizerTest, RunHandlesBareAggregate) {
  Optimizer opt(db_.schema());
  EXPECT_EQ(opt.Run(ParseOQL("max(select e.age from e in Employees)"), db_),
            Value::Int(55));
  EXPECT_EQ(opt.Run(ParseOQL("1 + 2 * 3"), db_), Value::Int(7));
}

TEST_F(OptimizerTest, CompileUnnestsNonComprehensionTopLevel) {
  // A top level that is not a comprehension compiles as first{ e | }: the
  // reduce of the unit stream, with every subquery spliced out of the head.
  Optimizer opt(db_.schema());
  CompiledQuery arith = opt.Compile(ParseOQL("1 + 2"));
  EXPECT_EQ(PlanShape(arith.plan), "Reduce(Unit)");
  EXPECT_EQ(arith.plan->monoid, MonoidKind::kFirst);
  EXPECT_EQ(opt.Execute(arith, db_), Value::Int(3));

  CompiledQuery rec = opt.Compile(ParseOQL(
      "struct(young: count(select e from e in Employees where e.age < 40), "
      "       depts: count(select d from d in Departments))"));
  EXPECT_EQ(rec.normalized->kind, ExprKind::kRecord);  // unwrapped normal form
  EXPECT_TRUE(IsFullyUnnested(rec.plan));
  EXPECT_EQ(PlanShape(rec.plan),
            "Reduce(Nest(OuterJoin(Nest(Scan(Employees)),Scan(Departments))))");
  EXPECT_EQ(rec.plan->monoid, MonoidKind::kFirst);
}

TEST_F(OptimizerTest, TypecheckCatchesBadQueriesBeforeExecution) {
  Optimizer opt(db_.schema());
  EXPECT_THROW(opt.Compile(ParseOQL(
                   "select distinct e.nope from e in Employees")),
               TypeError);
  EXPECT_THROW(opt.Compile(ParseOQL(
                   "select distinct e from e in Employees where e.name + 1 > 2")),
               TypeError);
}

TEST_F(OptimizerTest, BagQueriesWithoutNestingRunFine) {
  Value r = RunOQL(db_, "select e.dno from e in Employees");
  // Bag keeps duplicates: four employees over two departments.
  EXPECT_EQ(r, Value::Bag({Value::Int(0), Value::Int(0), Value::Int(1),
                           Value::Int(1)}));
}

TEST_F(OptimizerTest, BagNestingOverSetPathsIsAllowed) {
  // Bag semantics + nest, but every generator is an extent or set path:
  // object identity keeps groups distinct, so unnesting is safe and must
  // agree with the baseline.
  const char* q =
      "select struct(n: e.name, k: count(select c from c in e.children)) "
      "from e in Employees";
  Value optimized = RunOQL(db_, q);
  EXPECT_EQ(optimized, RunOQLBaseline(db_, q));
}

TEST_F(OptimizerTest, DuplicateSafetyRejectsBagNestOverBagPath) {
  // Extend the schema with a bag-typed attribute; unnesting a bag query
  // whose group keys may repeat must be rejected.
  Schema schema;
  schema.AddClass(ClassDecl{
      "Doc",
      "Docs",
      {{"words", Type::Bag(Type::Str())}, {"id", Type::Int()}}});
  Database db(schema);
  db.Insert("Doc", Value::Tuple({{"words", Value::Bag({Value::Str("a"),
                                                       Value::Str("a")})},
                                 {"id", Value::Int(1)}}));
  // For each word occurrence, count docs containing that word: the nested
  // query correlates with w, so its nest groups by (d, w) — and duplicate
  // occurrences of "a" would merge into one group under unnesting.
  ExprPtr q = ParseOQL(
      "select struct(w: w, n: count(select d2 from d2 in Docs "
      "where w in d2.words)) from d in Docs, w in d.words");
  Optimizer opt(schema);
  EXPECT_THROW(opt.Run(q, db), UnsupportedError);
  // The baseline still evaluates it.
  Value base = EvalCalculus(q, db);
  EXPECT_EQ(base.AsElems().size(), 2u);
  // And with the check disabled (documented unsafe), it runs but merges the
  // duplicate groups — exactly the hazard the check guards against.
  OptimizerOptions unsafe;
  unsafe.check_duplicate_safety = false;
  Optimizer opt2(schema, unsafe);
  Value merged = opt2.Run(q, db);
  EXPECT_EQ(merged.AsElems().size(), 1u);
}

TEST_F(OptimizerTest, SetNestingGroupedByBagVarAlsoRejected) {
  // Even under set semantics the hazard is real: the correlated count below
  // would tally the duplicate "a" rows into one group and report n=2 where
  // the baseline (one evaluation per occurrence) reports n=1 twice. The
  // safety check therefore rejects ANY nest grouped by a bag-unnest
  // variable, not just bag-monoid queries.
  Schema schema;
  schema.AddClass(ClassDecl{
      "Doc",
      "Docs",
      {{"words", Type::Bag(Type::Str())}, {"id", Type::Int()}}});
  Database db(schema);
  db.Insert("Doc", Value::Tuple({{"words", Value::Bag({Value::Str("a"),
                                                       Value::Str("a"),
                                                       Value::Str("b")})},
                                 {"id", Value::Int(1)}}));
  const char* q =
      "select distinct struct(w: w, n: count(select d2 from d2 in Docs "
      "where d2.id = d.id)) from d in Docs, w in d.words";
  Optimizer opt(schema);
  EXPECT_THROW(opt.Run(ParseOQL(q), db), UnsupportedError);
  // The baseline evaluates it fine.
  Value base = EvalCalculus(ParseOQL(q), db);
  EXPECT_EQ(base.AsElems().size(), 2u);

  // A bag unnest that only feeds reduces (no nest grouping) is fine.
  Value words = opt.Run(
      ParseOQL("select w from d in Docs, w in d.words"), db);
  EXPECT_EQ(words, Value::Bag({Value::Str("a"), Value::Str("a"),
                               Value::Str("b")}));
}

TEST_F(OptimizerTest, UnionOfQueriesAtTopLevel) {
  // A merge at the top unnests as first{ A (+) B | }: both sides are spliced
  // out of the head as nests.
  ExprPtr left = ParseOQL("select distinct e.name from e in Employees "
                          "where e.dno = 0");
  ExprPtr right = ParseOQL("select distinct e.name from e in Employees "
                           "where e.dno = 1");
  ExprPtr merged = Expr::Merge(MonoidKind::kSet, left, right);
  Optimizer opt(db_.schema());
  Value r = opt.Run(merged, db_);
  EXPECT_EQ(r.AsElems().size(), 4u);
}

}  // namespace
}  // namespace ldb
