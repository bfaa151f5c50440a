// Tests for access-path selection: Database hash indexes and the executor's
// IndexScan choice (paper Section 6, "choosing access paths").

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/core/unnest.h"
#include "src/runtime/eval_algebra.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

ExprPtr V(const std::string& n) { return Expr::Var(n); }

class IndexTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();

  AlgPtr PlanOf(const std::string& oql) {
    return UnnestComp(Normalize(ParseOQL(oql)), db_.schema());
  }
};

TEST_F(IndexTest, BuildAndLookup) {
  db_.BuildIndex("Employees", "dno");
  EXPECT_TRUE(db_.HasIndex("Employees", "dno"));
  EXPECT_FALSE(db_.HasIndex("Employees", "age"));
  EXPECT_EQ(db_.IndexLookup("Employees", "dno", Value::Int(0)).size(), 2u);
  EXPECT_EQ(db_.IndexLookup("Employees", "dno", Value::Int(1)).size(), 2u);
  EXPECT_TRUE(db_.IndexLookup("Employees", "dno", Value::Int(99)).empty());
  EXPECT_THROW(db_.IndexLookup("Employees", "age", Value::Int(1)), EvalError);
  EXPECT_THROW(db_.BuildIndex("Nope", "x"), TypeError);
  EXPECT_THROW(db_.BuildIndex("Employees", "nothere"), TypeError);
}

TEST_F(IndexTest, NullKeysAreNotIndexed) {
  db_.BuildIndex("Employees", "manager");
  // Cal has a NULL manager: 3 of 4 employees indexed across 2 managers.
  size_t total = 0;
  for (const Value& mref : db_.Extent("Managers")) {
    total += db_.IndexLookup("Employees", "manager", mref).size();
  }
  EXPECT_EQ(total, 3u);
}

TEST_F(IndexTest, MatchIndexScanRecognizesPinnedAttribute) {
  db_.BuildIndex("Employees", "dno");
  AlgPtr scan = AlgOp::Scan(
      "Employees", "e",
      Expr::And(Expr::Eq(Expr::Proj(V("e"), "dno"), Expr::Int(1)),
                Expr::Bin(BinOpKind::kGt, Expr::Proj(V("e"), "age"),
                          Expr::Int(30))));
  IndexMatch m;
  ASSERT_TRUE(MatchIndexScan(*scan, db_, &m));
  EXPECT_EQ(m.attr, "dno");
  EXPECT_TRUE(ExprEqual(m.key, Expr::Int(1)));
  EXPECT_FALSE(m.residual->IsTrueLiteral());

  // Flipped sides also match.
  AlgPtr flipped = AlgOp::Scan(
      "Employees", "e", Expr::Eq(Expr::Int(0), Expr::Proj(V("e"), "dno")));
  ASSERT_TRUE(MatchIndexScan(*flipped, db_, &m));
  EXPECT_EQ(m.attr, "dno");

  // Non-constant keys do not match (that is a join, not an index scan).
  AlgPtr corr = AlgOp::Scan(
      "Employees", "e",
      Expr::Eq(Expr::Proj(V("e"), "dno"), Expr::Proj(V("d"), "dno")));
  EXPECT_FALSE(MatchIndexScan(*corr, db_, &m));

  // No index, no match.
  AlgPtr other = AlgOp::Scan("Departments", "d",
                             Expr::Eq(Expr::Proj(V("d"), "dno"), Expr::Int(1)));
  EXPECT_FALSE(MatchIndexScan(*other, db_, &m));
}

TEST_F(IndexTest, IndexScanResultsMatchFullScan) {
  const char* q =
      "select distinct e.name from e in Employees "
      "where e.dno = 1 and e.age < 50";
  AlgPtr plan = PlanOf(q);
  Value without = ExecutePlan(plan, db_);
  db_.BuildIndex("Employees", "dno");
  Value with = ExecutePlan(plan, db_);
  EXPECT_EQ(with, without);
  EXPECT_EQ(with, Value::Set({Value::Str("Cal")}));

  PhysicalOptions no_idx;
  no_idx.use_indexes = false;
  EXPECT_EQ(ExecutePlan(plan, db_, no_idx), without);
}

TEST_F(IndexTest, ExplainShowsIndexScan) {
  db_.BuildIndex("Employees", "dno");
  AlgPtr plan = PlanOf(
      "select distinct e.name from e in Employees where e.dno = 1");
  std::string with_index = PrintPhysicalPlan(PlanPhysical(plan, db_));
  EXPECT_NE(with_index.find("IndexScan[e <- Employees.dno = 1]"),
            std::string::npos)
      << with_index;
  PhysicalOptions no_idx;
  no_idx.use_indexes = false;
  std::string without_index = PrintPhysicalPlan(PlanPhysical(plan, db_, no_idx));
  EXPECT_EQ(without_index.find("IndexScan"), std::string::npos)
      << without_index;
}

TEST_F(IndexTest, WrongSchemaIndexThrows) {
  EXPECT_THROW(db_.BuildIndex("Transcripts", "sid"), TypeError);
}

TEST_F(IndexTest, IndexedNestedQueryStillCorrect) {
  db_.BuildIndex("Employees", "dno");
  const char* q =
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments";
  // The correlated conjunct is NOT constant, so the outer-join path is used,
  // not the index — but results must stay correct either way.
  EXPECT_EQ(RunOQL(db_, q), RunOQLBaseline(db_, q));
}

}  // namespace
}  // namespace ldb
