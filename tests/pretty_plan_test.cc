// Coverage for the plan/physical printers and the remaining calculus
// rendering branches (src/core/pretty.*, src/runtime/physical_plan.*).

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/core/pretty.h"
#include "src/core/unnest.h"
#include "src/runtime/physical_plan.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

ExprPtr V(const std::string& n) { return Expr::Var(n); }

TEST(PrettyPlanTest, AllLogicalOperatorsRender) {
  AlgPtr unit = AlgOp::Unit();
  EXPECT_EQ(PrintPlan(unit), "Unit\n");

  AlgPtr sel = AlgOp::Select(AlgOp::Scan("Employees", "e", nullptr),
                             Expr::Eq(Expr::Proj(V("e"), "dno"), Expr::Int(1)));
  std::string s = PrintPlan(sel);
  EXPECT_NE(s.find("Select[(e.dno = 1)]"), std::string::npos);
  EXPECT_NE(s.find("  Scan[e <- Employees]"), std::string::npos);

  AlgPtr ou = AlgOp::OuterUnnest(AlgOp::Scan("Employees", "e", nullptr),
                                 Expr::Proj(V("e"), "children"), "c",
                                 Expr::Bin(BinOpKind::kGt,
                                           Expr::Proj(V("c"), "age"),
                                           Expr::Int(3)));
  EXPECT_NE(PrintPlan(ou).find(
                "OuterUnnest[c := e.children if (c.age > 3)]"),
            std::string::npos);

  // Nest with expression keys renders `name=expr`.
  AlgPtr nest = AlgOp::Nest(AlgOp::Scan("Employees", "e", nullptr),
                            MonoidKind::kAvg, Expr::Proj(V("e"), "salary"),
                            "m", {{"k", Expr::Proj(V("e"), "dno")}}, {"e"},
                            nullptr);
  std::string n = PrintPlan(nest);
  EXPECT_NE(n.find("Nest[avg/e.salary -> m group_by(k=e.dno) nulls(e)]"),
            std::string::npos)
      << n;
}

TEST(PrettyPlanTest, ShapeOfEveryKind) {
  AlgPtr plan = AlgOp::Reduce(
      AlgOp::Select(
          AlgOp::OuterUnnest(AlgOp::Unit(), Expr::Proj(V("x"), "ys"), "y",
                             nullptr),
          Expr::True()),
      MonoidKind::kSome, Expr::True(), nullptr);
  EXPECT_EQ(PlanShape(plan), "Reduce(Select(OuterUnnest(Unit)))");
}

TEST(PrettyPlanTest, PhysicalPlanRendersEveryOperator) {
  Database db = testing::TinyCompany();
  db.BuildIndex("Employees", "dno");
  AlgPtr logical = UnnestComp(
      Normalize(ParseOQL(
          "select distinct struct(D: d.name, E: (select distinct e.name "
          "from e in Employees where e.dno = d.dno)) from d in Departments")),
      db.schema());
  PhysPtr phys = PlanPhysical(logical, db);
  std::string printed = PrintPhysicalPlan(phys);
  EXPECT_NE(printed.find("Reduce[set/"), std::string::npos);
  EXPECT_NE(printed.find("GroupJoin[set/e.name -> "), std::string::npos)
      << printed;
  EXPECT_NE(printed.find(" aggregate(d.dno=e.dno)]"), std::string::npos)
      << printed;

  // A nest over an outer unnest keeps HashNest over HashOuterJoin; a
  // correlated inequality renders the sorted strategy's comparison.
  std::string kept = PrintPhysicalPlan(PlanPhysical(
      UnnestComp(Normalize(ParseOQL(
                     "select distinct struct(D: d.name, C: (select distinct "
                     "c.name from e in Employees, c in e.children where "
                     "e.dno = d.dno)) from d in Departments")),
                 db.schema()),
      db));
  EXPECT_NE(kept.find("HashNest[set/c.name -> "), std::string::npos) << kept;
  EXPECT_NE(kept.find("HashOuterJoin[build=right keys(d.dno=e.dno)]"),
            std::string::npos)
      << kept;
  std::string sorted = PrintPhysicalPlan(PlanPhysical(
      UnnestComp(Normalize(ParseOQL(
                     "select distinct e.name from e in Employees where "
                     "e.salary < max(select m.salary from m in Managers "
                     "where e.age > m.age)")),
                 db.schema()),
      db));
  EXPECT_NE(sorted.find(" sorted(e.age > m.age)]"), std::string::npos)
      << sorted;

  // UnitRow + Filter render too.
  auto filter = std::make_shared<PhysOp>();
  filter->kind = PhysKind::kFilter;
  filter->pred = Expr::True();
  auto unit = std::make_shared<PhysOp>();
  unit->kind = PhysKind::kUnitRow;
  unit->pred = Expr::True();
  filter->left = unit;
  EXPECT_EQ(PrintPhysicalPlan(filter), "Filter[true]\n  UnitRow\n");
}

TEST(PrettyPlanTest, MergeApplyLambdaRender) {
  ExprPtr m = Expr::Merge(MonoidKind::kBag, V("A"), V("B"));
  EXPECT_EQ(PrintExpr(m), "(A (+)bag B)");
  ExprPtr app = Expr::Apply(Expr::Lambda("x", V("x")), Expr::Int(1));
  EXPECT_EQ(PrintExpr(app), "\\x. x(1)");
}

TEST(PrettyPlanTest, NullPlanAndExprAreSafe) {
  EXPECT_EQ(PrintExpr(nullptr), "<null-expr>");
  EXPECT_EQ(PrintPlan(nullptr), "<null-plan>\n");
}

TEST(PrettyPlanTest, UnnestStepsRenderMeaningfully) {
  Database db = testing::TinyCompany();
  std::vector<UnnestStep> steps;
  UnnestCompTraced(Normalize(ParseOQL(
                       "select distinct d.name from d in Departments "
                       "where count(select e from e in Employees "
                       "where e.dno = d.dno) = 0")),
                   db.schema(), &steps);
  ASSERT_GE(steps.size(), 4u);
  EXPECT_EQ(steps.front().rule, "C1");
  EXPECT_NE(steps.front().description.find("Departments"), std::string::npos);
  EXPECT_EQ(steps.back().rule, "C2");
}

}  // namespace
}  // namespace ldb
