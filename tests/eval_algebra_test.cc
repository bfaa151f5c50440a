// Tests for physical operator selection (src/runtime/physical.*) and the
// hash vs nested-loop equivalence of the executor (src/runtime/eval_algebra.*).

#include "src/runtime/physical.h"

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/core/unnest.h"
#include "src/runtime/eval_algebra.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

ExprPtr V(const std::string& n) { return Expr::Var(n); }

TEST(EquiKeyTest, ExtractsSimpleEquality) {
  ExprPtr pred = Expr::Eq(Expr::Proj(V("e"), "dno"), Expr::Proj(V("d"), "dno"));
  JoinKeys keys = ExtractEquiKeys(pred, {"d"}, {"e"});
  ASSERT_TRUE(keys.hashable());
  ASSERT_EQ(keys.left_keys.size(), 1u);
  // Sides are normalized: left key over left vars.
  EXPECT_EQ(FreeVars(keys.left_keys[0]).count("d"), 1u);
  EXPECT_EQ(FreeVars(keys.right_keys[0]).count("e"), 1u);
  EXPECT_TRUE(keys.residual->IsTrueLiteral());
}

TEST(EquiKeyTest, KeepsResidual) {
  ExprPtr pred = Expr::And(
      Expr::Eq(Expr::Proj(V("a"), "x"), Expr::Proj(V("b"), "x")),
      Expr::Bin(BinOpKind::kLt, Expr::Proj(V("a"), "y"), Expr::Proj(V("b"), "y")));
  JoinKeys keys = ExtractEquiKeys(pred, {"a"}, {"b"});
  EXPECT_TRUE(keys.hashable());
  EXPECT_EQ(keys.left_keys.size(), 1u);
  EXPECT_FALSE(keys.residual->IsTrueLiteral());
}

TEST(EquiKeyTest, CrossSideEqualityIsNotAKey) {
  // a.x = a.y references only the left side: not hashable.
  ExprPtr pred = Expr::Eq(Expr::Proj(V("a"), "x"), Expr::Proj(V("a"), "y"));
  JoinKeys keys = ExtractEquiKeys(pred, {"a"}, {"b"});
  EXPECT_FALSE(keys.hashable());
  EXPECT_FALSE(keys.residual->IsTrueLiteral());
}

TEST(EquiKeyTest, MultipleKeys) {
  ExprPtr pred = Expr::And(
      Expr::Eq(Expr::Proj(V("t"), "sid"), Expr::Proj(V("s"), "sid")),
      Expr::Eq(Expr::Proj(V("t"), "cno"), Expr::Proj(V("c"), "cno")));
  JoinKeys keys = ExtractEquiKeys(pred, {"s", "c"}, {"t"});
  EXPECT_EQ(keys.left_keys.size(), 2u);
  EXPECT_TRUE(keys.residual->IsTrueLiteral());
}

TEST(EquiKeyTest, NonEqualityIsResidual) {
  ExprPtr pred = Expr::Bin(BinOpKind::kLt, V("a"), V("b"));
  JoinKeys keys = ExtractEquiKeys(pred, {"a"}, {"b"});
  EXPECT_FALSE(keys.hashable());
}

class PhysicalTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();
};

TEST_F(PhysicalTest, ExplainShowsHashJoinWithKeys) {
  AlgPtr plan = UnnestComp(
      Normalize(ParseOQL(
          "select distinct struct(D: d.name, E: (select distinct e.name "
          "from e in Employees where e.dno = d.dno)) from d in Departments")),
      db_.schema());
  // The outer join and its nest run as one GroupJoin that pre-aggregates
  // the employees per dno key; without hash joins it loops over a buffer.
  std::string explained = PrintPhysicalPlan(PlanPhysical(plan, db_));
  EXPECT_NE(explained.find("GroupJoin[set/e.name -> "), std::string::npos)
      << explained;
  EXPECT_NE(explained.find(" aggregate(d.dno=e.dno)]"), std::string::npos)
      << explained;

  PhysicalOptions nl;
  nl.use_hash_joins = false;
  std::string explained_nl = PrintPhysicalPlan(PlanPhysical(plan, db_, nl));
  EXPECT_NE(explained_nl.find(" loop if (e.dno = d.dno)]"), std::string::npos)
      << explained_nl;

  // A flat join keeps its hash join and keys.
  std::string join = PrintPhysicalPlan(PlanPhysical(
      UnnestComp(Normalize(ParseOQL(
                     "select distinct struct(E: e.name, D: d.name) from e in "
                     "Employees, d in Departments where e.dno = d.dno")),
                 db_.schema()),
      db_));
  EXPECT_NE(join.find("HashJoin[build="), std::string::npos) << join;
  EXPECT_NE(join.find("keys("), std::string::npos) << join;
}

TEST_F(PhysicalTest, HashAndNLAgreeOnPaperQueries) {
  const char* queries[] = {
      "select distinct struct(E: e.name, C: c.name) "
      "from e in Employees, c in e.children",
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments",
      "select distinct e.name from e in Employees "
      "where e.salary < max(select m.salary from m in Managers "
      "where e.age > m.age)",
      "select distinct e.dno, avg(e.salary) from Employees e "
      "where e.age > 30 group by e.dno",
  };
  for (const char* q : queries) {
    OptimizerOptions hash, nl;
    nl.physical.use_hash_joins = false;
    EXPECT_EQ(RunOQL(db_, q, hash), RunOQL(db_, q, nl)) << q;
  }
}

TEST_F(PhysicalTest, NullJoinKeysNeverMatch) {
  // Employees with a NULL manager must not join to anything through the
  // hash table (NULL = NULL is false), matching nested-loop semantics.
  ExprPtr pred = Expr::Eq(Expr::Proj(V("e"), "manager"), V("m"));
  AlgPtr join =
      AlgOp::Join(AlgOp::Scan("Employees", "e", nullptr),
                  AlgOp::Scan("Managers", "m", nullptr), pred);
  AlgPtr plan = AlgOp::Reduce(join, MonoidKind::kSet,
                              Expr::Proj(V("e"), "name"), nullptr);
  PhysicalOptions hash, nl;
  nl.use_hash_joins = false;
  Value h = ExecutePlan(plan, db_, hash);
  Value n = ExecutePlan(plan, db_, nl);
  EXPECT_EQ(h, n);
  // Cal has NULL manager: absent.
  EXPECT_EQ(h, Value::Set({Value::Str("Ann"), Value::Str("Bob"),
                           Value::Str("Dee")}));
}

TEST_F(PhysicalTest, OuterJoinNullLeftKeyStillPads) {
  // With a NULL left key, the outer-join must pad rather than drop or match.
  ExprPtr pred = Expr::Eq(Expr::Proj(V("e"), "manager"), V("m"));
  AlgPtr join =
      AlgOp::OuterJoin(AlgOp::Scan("Employees", "e", nullptr),
                       AlgOp::Scan("Managers", "m", nullptr), pred);
  AlgPtr plan = AlgOp::Reduce(
      join, MonoidKind::kSet,
      Expr::Record({{"e", Expr::Proj(V("e"), "name")},
                    {"pad", Expr::Un(UnOpKind::kIsNull, V("m"))}}),
      nullptr);
  PhysicalOptions hash, nl;
  nl.use_hash_joins = false;
  Value h = ExecutePlan(plan, db_, hash);
  EXPECT_EQ(h, ExecutePlan(plan, db_, nl));
  // Cal appears padded.
  bool found = false;
  for (const Value& row : h.AsElems()) {
    if (row.Field("e") == Value::Str("Cal")) {
      found = true;
      EXPECT_EQ(row.Field("pad"), Value::Bool(true));
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ldb
