// Tests for the physical plan layer (src/runtime/physical_plan.*) and the
// Volcano pipelined executor (src/runtime/exec_pipeline.*): operator choice,
// engine equivalence with the materializing executor, and pipeline
// short-circuiting behaviour.

#include "src/runtime/exec_pipeline.h"

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/core/unnest.h"
#include "src/runtime/eval_algebra.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// Wraps a single operator in a root Reduce folding `head`, so operator
// contracts run through the engine's public entry points.
PhysPtr Reduce(PhysPtr input, MonoidKind monoid, ExprPtr head) {
  auto root = std::make_shared<PhysOp>();
  root->kind = PhysKind::kReduce;
  root->left = std::move(input);
  root->monoid = monoid;
  root->head = std::move(head);
  root->pred = Expr::True();
  return root;
}

class PipelineTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();

  AlgPtr PlanOf(const std::string& oql) {
    return UnnestComp(Normalize(ParseOQL(oql)), db_.schema());
  }

  // Engine equivalence on one query: materializing == pipelined == baseline.
  void CheckAllEngines(const std::string& oql) {
    AlgPtr logical = PlanOf(oql);
    Value materialized = ExecutePlan(logical, db_);
    PhysPtr physical = PlanPhysical(logical, db_);
    Value pipelined = ExecutePipelined(physical, db_);
    Value baseline = RunOQLBaseline(db_, oql);
    EXPECT_EQ(pipelined, materialized) << oql << "\n"
                                       << PrintPhysicalPlan(physical);
    EXPECT_EQ(pipelined, baseline) << oql;
  }
};

TEST_F(PipelineTest, PlannerChoosesOperators) {
  AlgPtr logical = PlanOf(
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments");
  PhysPtr phys = PlanPhysical(logical, db_);
  std::string printed = PrintPhysicalPlan(phys);
  // The outer join + nest pair that unnesting emits is one GroupJoin.
  EXPECT_NE(printed.find("GroupJoin[set/e.name -> "), std::string::npos)
      << printed;
  EXPECT_NE(printed.find(" aggregate(d.dno=e.dno)]"), std::string::npos)
      << printed;
  EXPECT_EQ(printed.find("HashNest"), std::string::npos) << printed;
  EXPECT_NE(printed.find("TableScan"), std::string::npos);

  PhysicalOptions nl;
  nl.use_hash_joins = false;
  PhysPtr phys_nl = PlanPhysical(logical, db_, nl);
  EXPECT_NE(PrintPhysicalPlan(phys_nl).find(" loop if (e.dno = d.dno)]"),
            std::string::npos)
      << PrintPhysicalPlan(phys_nl);

  // A nest over an outer unnest keeps the hash outer join and HashNest.
  AlgPtr unnested = PlanOf(
      "select distinct struct(D: d.name, n: count(select c from e in "
      "Employees, c in e.children where e.dno = d.dno)) from d in Departments");
  std::string kept = PrintPhysicalPlan(PlanPhysical(unnested, db_));
  EXPECT_NE(kept.find("HashOuterJoin[build=right keys(d.dno=e.dno)]"),
            std::string::npos)
      << kept;
  EXPECT_NE(kept.find("HashNest"), std::string::npos) << kept;
  EXPECT_NE(PrintPhysicalPlan(PlanPhysical(unnested, db_, nl))
                .find("NLOuterJoin"),
            std::string::npos);
}

TEST_F(PipelineTest, PlannerUsesIndexes) {
  db_.BuildIndex("Employees", "dno");
  AlgPtr logical = PlanOf(
      "select distinct e.name from e in Employees where e.dno = 1");
  PhysPtr phys = PlanPhysical(logical, db_);
  EXPECT_NE(PrintPhysicalPlan(phys).find("IndexScan[e <- Employees.dno = 1]"),
            std::string::npos);
  EXPECT_EQ(ExecutePipelined(phys, db_), Value::Set({Value::Str("Cal"),
                                                     Value::Str("Dee")}));
}

TEST_F(PipelineTest, InnerHashJoinBuildsOnSmallerSide) {
  AlgPtr logical = PlanOf(
      "select distinct struct(a: e.name, b: d.name) "
      "from e in Employees, d in Departments where e.dno = d.dno");
  PhysPtr phys = PlanPhysical(logical, db_);
  // Departments (3) < Employees (4): with Employees on the left, the build
  // flips to... the right side here IS Departments, so build=right; write a
  // reversed query to see build=left.
  std::string printed = PrintPhysicalPlan(phys);
  EXPECT_NE(printed.find("HashJoin[build=right"), std::string::npos) << printed;

  AlgPtr reversed = PlanOf(
      "select distinct struct(a: e.name, b: d.name) "
      "from d in Departments, e in Employees where e.dno = d.dno");
  // Left side Departments is smaller: build stays... left=Departments(3) <
  // right=Employees(4) -> build_is_left.
  std::string printed2 = PrintPhysicalPlan(PlanPhysical(reversed, db_));
  EXPECT_NE(printed2.find("HashJoin[build=left"), std::string::npos)
      << printed2;
  CheckAllEngines(
      "select distinct struct(a: e.name, b: d.name) "
      "from d in Departments, e in Employees where e.dno = d.dno");
}

TEST_F(PipelineTest, EnginesAgreeOnPaperQueries) {
  const char* queries[] = {
      "select distinct struct(E: e.name, C: c.name) "
      "from e in Employees, c in e.children",
      "select distinct struct(D: d.name, E: (select distinct e.name "
      "from e in Employees where e.dno = d.dno)) from d in Departments",
      "select distinct struct(E: e.name, M: count(select distinct c "
      "from c in e.children "
      "where for all d in e.manager.children: c.age > d.age)) "
      "from e in Employees",
      "select distinct e.name from e in Employees "
      "where e.salary < max(select m.salary from m in Managers "
      "where e.age > m.age)",
      "select distinct e.dno, avg(e.salary) from Employees e "
      "where e.age > 30 group by e.dno",
      "select distinct d.name from d in Departments "
      "where count(select e from e in Employees where e.dno = d.dno) = 0",
      "select e.dno from e in Employees",  // bag
      "count(select e from e in Employees)",
  };
  for (const char* q : queries) CheckAllEngines(q);
}

TEST_F(PipelineTest, EnginesAgreeOnQueryE) {
  Database uni = testing::TinyUniversity();
  const char* q =
      "select distinct s.name from s in Students "
      "where for all c in select c from c in Courses where c.title = 'DB': "
      "exists t in Transcripts: t.sid = s.sid and t.cno = c.cno";
  AlgPtr logical = UnnestComp(Normalize(ParseOQL(q)), uni.schema());
  PhysPtr phys = PlanPhysical(logical, uni);
  EXPECT_EQ(ExecutePipelined(phys, uni),
            Value::Set({Value::Str("s0"), Value::Str("s3")}));
}

TEST_F(PipelineTest, OuterJoinsAlwaysProbeWithLeft) {
  // An outer join must not flip its build side even when the left input is
  // smaller (padding is per left row). The outer unnest between the join
  // and its nest keeps them apart (no GroupJoin).
  AlgPtr logical = PlanOf(
      "select distinct struct(D: d.name, n: count(select c from e in "
      "Employees, c in e.children where e.dno = d.dno)) from d in Departments");
  PhysPtr phys = PlanPhysical(logical, db_);
  EXPECT_NE(PrintPhysicalPlan(phys).find("HashOuterJoin[build=right"),
            std::string::npos);
}

TEST_F(PipelineTest, IteratorContractBasics) {
  auto scan = std::make_shared<PhysOp>();
  scan->kind = PhysKind::kTableScan;
  scan->extent = "Employees";
  scan->var = "e";
  scan->pred = Expr::True();
  // Every extent row comes out exactly once, bound to the scan variable.
  EXPECT_EQ(ExecutePipelined(Reduce(scan, MonoidKind::kSum, Expr::Int(1)), db_),
            Value::Int(4));
  Value all = Value::Bag(db_.Extent("Employees"));
  SlotPlan plan =
      CompileSlotPlan(Reduce(scan, MonoidKind::kBag, Expr::Var("e")), db_);
  EXPECT_EQ(ExecuteSlotPlan(plan, db_), all);
  // Open resets: a second run of the same plan sees the same rows.
  EXPECT_EQ(ExecuteSlotPlan(plan, db_), all);
}

TEST_F(PipelineTest, UnitRowEmitsExactlyOnce) {
  auto unit = std::make_shared<PhysOp>();
  unit->kind = PhysKind::kUnitRow;
  unit->pred = Expr::True();
  EXPECT_EQ(ExecutePipelined(Reduce(unit, MonoidKind::kSum, Expr::Int(1)), db_),
            Value::Int(1));
}

TEST_F(PipelineTest, ScalarNestEmitsZeroRowOnEmptyInput) {
  // The regression from random_query_test: a key-less nest over an empty
  // input still emits one row carrying the monoid's zero.
  auto scan = std::make_shared<PhysOp>();
  scan->kind = PhysKind::kTableScan;
  scan->extent = "Employees";
  scan->var = "e";
  scan->pred = Expr::False();  // nothing survives
  auto nest = std::make_shared<PhysOp>();
  nest->kind = PhysKind::kHashNest;
  nest->left = scan;
  nest->monoid = MonoidKind::kAll;
  nest->head = Expr::True();
  nest->var = "v";
  nest->pred = Expr::True();
  EXPECT_EQ(
      ExecutePipelined(Reduce(nest, MonoidKind::kBag, Expr::Var("v")), db_),
      Value::Bag({Value::Bool(true)}));  // exactly one row: zero of all
}

TEST_F(PipelineTest, OptimizerUsesPipelineByDefault) {
  OptimizerOptions pipelined, materializing;
  materializing.pipelined_execution = false;
  const char* q = "select distinct e.name from e in Employees where e.age > 35";
  EXPECT_EQ(RunOQL(db_, q, pipelined), RunOQL(db_, q, materializing));
}

}  // namespace
}  // namespace ldb
