// Tests for the static plan verifier (src/verify/, docs/VERIFIER.md):
// deliberately corrupted IRs at each layer must be rejected with the right
// stage/rule diagnostic, well-formed pipelines must pass every layer, and
// the calculus pretty-printer must round-trip through ParseCalculus.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace ldb {
namespace {

using ::ldb::testing::TinyCompany;

Schema CompanySchema() { return workload::CompanySchema(); }

// Finds a report by stage label; fails the test if absent.
const VerifyReport& Stage(const std::vector<VerifyReport>& reports,
                          const std::string& stage) {
  for (const VerifyReport& r : reports) {
    if (r.stage == stage) return r;
  }
  ADD_FAILURE() << "no report for stage " << stage;
  static VerifyReport empty;
  return empty;
}

bool HasRule(const VerifyReport& r, const std::string& rule) {
  for (const VerifyFinding& f : r.findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Layer 1: calculus.

TEST(VerifyCalculusTest, WellTypedQueryPasses) {
  Schema schema = CompanySchema();
  ExprPtr q = ParseOQL("select e.name from e in Employees where e.age > 30");
  VerifyReport r = VerifyCalculus(q, schema, CalculusStage::kInput);
  EXPECT_TRUE(r.ok()) << r.ToString();
  EXPECT_EQ(r.stage, "calculus-input");
  EXPECT_GT(r.checks, 0);
}

TEST(VerifyCalculusTest, IllTypedTermRejectedWithFig3Rule) {
  Schema schema = CompanySchema();
  // sum{ e.name + 1 | e <- Employees }: string + int violates Figure 3.
  ExprPtr bad = Expr::Comp(
      MonoidKind::kSum,
      Expr::Bin(BinOpKind::kAdd, Expr::Proj(Expr::Var("e"), "name"),
                Expr::Int(1)),
      {Qualifier::Generator("e", Expr::Var("Employees"))});
  VerifyReport r = VerifyCalculus(bad, schema, CalculusStage::kInput);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "Fig3-typing")) << r.ToString();
  try {
    r.ThrowIfFailed();
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.stage(), "calculus-input");
    EXPECT_EQ(e.rule(), "Fig3-typing");
  }
}

TEST(VerifyCalculusTest, UnboundVariableRejectedWithScopeRule) {
  Schema schema = CompanySchema();
  // `mystery` is free but is not a declared extent.
  ExprPtr bad = Expr::Comp(MonoidKind::kSum, Expr::Var("mystery"),
                           {Qualifier::Generator("e", Expr::Var("Employees"))});
  VerifyReport r = VerifyCalculus(bad, schema, CalculusStage::kInput);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.findings[0].rule, "scope");
  EXPECT_NE(r.findings[0].detail.find("mystery"), std::string::npos);
}

TEST(VerifyCalculusTest, MalformedTreeRejectedAsWellFormed) {
  Schema schema = CompanySchema();
  // Duplicate record field names make projection ambiguous.
  ExprPtr bad = Expr::Comp(
      MonoidKind::kSet,
      Expr::Record({{"a", Expr::Proj(Expr::Var("e"), "name")},
                    {"a", Expr::Proj(Expr::Var("e"), "age")}}),
      {Qualifier::Generator("e", Expr::Var("Employees"))});
  VerifyReport r = VerifyCalculus(bad, schema, CalculusStage::kInput);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.findings[0].rule, "well-formed");
}

TEST(VerifyCalculusTest, SurvivingBetaRedexRejectedAfterNormalize) {
  Schema schema = CompanySchema();
  ExprPtr redex =
      Expr::Apply(Expr::Lambda("v", Expr::Var("v")), Expr::Int(1));
  VerifyReport r = VerifyCalculus(redex, schema, CalculusStage::kNormalized);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "Fig4-beta")) << r.ToString();
}

TEST(VerifyCalculusTest, UnnormalizedTermFailsFixpointCheck) {
  Schema schema = CompanySchema();
  // set{ x | x <- set{ y | y <- Employees } } — rule (N8) still applies, so
  // the term is not a Figure 4 normal form.
  ExprPtr nested = Expr::Comp(
      MonoidKind::kSet, Expr::Var("x"),
      {Qualifier::Generator(
          "x", Expr::Comp(MonoidKind::kSet, Expr::Var("y"),
                          {Qualifier::Generator("y", Expr::Var("Employees"))}))});
  VerifyReport r = VerifyCalculus(nested, schema, CalculusStage::kNormalized);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.findings[0].rule, "Fig4-fixpoint");
  EXPECT_EQ(r.findings[0].stage, "calculus-normalized");
  // The same term is fine when presented as pre-normalization input.
  EXPECT_TRUE(VerifyCalculus(nested, schema, CalculusStage::kInput).ok());
}

TEST(VerifyCalculusTest, NormalizedCorpusIsAFixpoint) {
  Schema schema = CompanySchema();
  for (const char* oql : {
           "select e.name from e in Employees where e.age > 30",
           "select d.name, sum(select e.salary from e in Employees "
           "where e.dno = d.dno) from d in Departments",
           "select e.name from e in Employees "
           "where exists c in e.children: c.age > 18",
       }) {
    CompiledQuery q = CompileOQL(schema, oql);
    VerifyReport r =
        VerifyCalculus(q.normalized, schema, CalculusStage::kNormalized);
    EXPECT_TRUE(r.ok()) << oql << "\n" << r.ToString();
  }
}

// ---------------------------------------------------------------------------
// Layer 2: algebra.

TEST(VerifyAlgebraTest, CompiledPlansPass) {
  Schema schema = CompanySchema();
  CompiledQuery q = CompileOQL(
      schema,
      "select d.name, sum(select e.salary from e in Employees "
      "where e.dno = d.dno) from d in Departments");
  VerifyReport r = VerifyAlgebra(q.plan, schema, "algebra-unnested");
  EXPECT_TRUE(r.ok()) << r.ToString();
  VerifyReport rs = VerifyAlgebra(q.simplified, schema, "algebra-simplified");
  EXPECT_TRUE(rs.ok()) << rs.ToString();
}

TEST(VerifyAlgebraTest, CompSmuggledIntoPredicateViolatesTheorem1) {
  Schema schema = CompanySchema();
  // A nested subquery hiding inside an operator predicate is exactly what
  // Theorem 1 says cannot survive unnesting.
  ExprPtr smuggled = Expr::Comp(
      MonoidKind::kSome, Expr::Bin(BinOpKind::kGt,
                                   Expr::Proj(Expr::Var("c"), "age"),
                                   Expr::Int(18)),
      {Qualifier::Generator("c", Expr::Proj(Expr::Var("e"), "children"))});
  AlgPtr plan = AlgOp::Reduce(AlgOp::Scan("Employees", "e", Expr::True()),
                              MonoidKind::kSum,
                              Expr::Proj(Expr::Var("e"), "salary"), smuggled);
  VerifyReport r = VerifyAlgebra(plan, schema, "algebra-unnested");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.findings[0].rule, "Thm1-flat");
  try {
    r.ThrowIfFailed();
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.stage(), "algebra-unnested");
    EXPECT_EQ(e.rule(), "Thm1-flat");
  }
}

TEST(VerifyAlgebraTest, NonReduceRootRejected) {
  Schema schema = CompanySchema();
  AlgPtr plan = AlgOp::Scan("Employees", "e", Expr::True());
  VerifyReport r = VerifyAlgebra(plan, schema, "algebra-unnested");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "root-reduce")) << r.ToString();
}

TEST(VerifyAlgebraTest, NullVarWithoutOuterOperatorRejected) {
  Schema schema = CompanySchema();
  // The nest claims `c` needs null->zero conversion, but `c` comes from a
  // plain (inner) unnest — a (C4) where the rules demanded a (C7): nothing
  // below the nest can ever pad `c` with NULL.
  AlgPtr unnest =
      AlgOp::Unnest(AlgOp::Scan("Employees", "e", Expr::True()),
                    Expr::Proj(Expr::Var("e"), "children"), "c", Expr::True());
  AlgPtr nest =
      AlgOp::Nest(unnest, MonoidKind::kSum, Expr::Proj(Expr::Var("c"), "age"),
                  "total", {{"e", Expr::Var("e")}}, {"c"}, Expr::True());
  AlgPtr plan = AlgOp::Reduce(nest, MonoidKind::kSet, Expr::Var("total"),
                              Expr::True());
  VerifyReport r = VerifyAlgebra(plan, schema, "algebra-unnested");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "O7-null-zero")) << r.ToString();
}

TEST(VerifyAlgebraTest, SeedScanNullVarAccepted) {
  Schema schema = CompanySchema();
  // The unnester null-converts every generator of an inner box; when an
  // uncorrelated box starts a fresh branch, its first generator is a plain
  // seed scan — never NULL, but a legitimate null-var (found by fuzzing:
  // sum{ g.dno | g <- Departments, ... } spliced as its own branch).
  AlgPtr nest = AlgOp::Nest(AlgOp::Scan("Departments", "g", Expr::True()),
                            MonoidKind::kSum, Expr::Proj(Expr::Var("g"), "dno"),
                            "total", {}, {"g"}, Expr::True());
  AlgPtr plan = AlgOp::Reduce(nest, MonoidKind::kSet, Expr::Var("total"),
                              Expr::True());
  EXPECT_TRUE(VerifyAlgebra(plan, schema, "algebra-unnested").ok());
}

TEST(VerifyAlgebraTest, OuterJoinNullVarsAccepted) {
  Schema schema = CompanySchema();
  // The canonical Figure 8 shape: the outer-join introduces e's padding and
  // the nest converts it — the verifier must accept it.
  CompiledQuery q = CompileOQL(
      schema,
      "select d.name, sum(select e.salary from e in Employees "
      "where e.dno = d.dno) from d in Departments");
  bool saw_null_vars = false;
  for (AlgPtr op = q.plan; op; op = op->left) {
    if (op->kind == AlgKind::kNest && !op->null_vars.empty()) {
      saw_null_vars = true;
    }
  }
  EXPECT_TRUE(saw_null_vars) << PrintPlan(q.plan);
  EXPECT_TRUE(VerifyAlgebra(q.plan, schema, "algebra-unnested").ok());
}

// ---------------------------------------------------------------------------
// Layer 3: slot plans.

CExprPtr CSlot(int slot) {
  auto e = std::make_shared<CExpr>();
  e->kind = CExprKind::kSlot;
  e->slot = slot;
  return e;
}

CExprPtr CTrue() {
  auto e = std::make_shared<CExpr>();
  e->kind = CExprKind::kLit;
  e->literal = Value::Bool(true);
  return e;
}

std::shared_ptr<SlotOp> MakeScan(int id, int slot) {
  auto scan = std::make_shared<SlotOp>();
  scan->kind = PhysKind::kTableScan;
  scan->id = id;
  scan->extent = "Employees";
  scan->var_slot = slot;
  scan->out_lo = slot;
  scan->out_hi = slot + 1;
  scan->pred = CTrue();
  return scan;
}

TEST(VerifySlotPlanTest, CompiledSlotPlansPass) {
  Database db = TinyCompany();
  for (const char* oql : {
           "select e.name from e in Employees where e.age > 30",
           "select d.name, sum(select e.salary from e in Employees "
           "where e.dno = d.dno) from d in Departments",
       }) {
    CompiledQuery q = CompileOQL(db.schema(), oql);
    SlotPlan slots = CompileSlotPlan(PlanPhysical(q.simplified, db), db);
    VerifyReport r = VerifySlotPlan(slots);
    EXPECT_TRUE(r.ok()) << oql << "\n" << r.ToString();
    EXPECT_EQ(r.stage, "slot-plan");
  }
}

TEST(VerifySlotPlanTest, ReadBeforeWriteRejected) {
  // Reduce(TableScan): the scan writes slot 0, but the reduce head reads
  // slot 1, which no operator ever writes.
  auto scan = MakeScan(1, 0);
  auto root = std::make_shared<SlotOp>();
  root->kind = PhysKind::kReduce;
  root->id = 0;
  root->out_lo = 0;
  root->out_hi = 1;
  root->monoid = MonoidKind::kSum;
  root->pred = CTrue();
  root->head = CSlot(1);
  root->left = scan;
  SlotPlan plan;
  plan.root = root;
  plan.n_slots = 2;
  VerifyReport r = VerifySlotPlan(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.findings[0].rule, "read-before-write");
  EXPECT_NE(r.findings[0].detail.find("slot 1"), std::string::npos);
  try {
    r.ThrowIfFailed();
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.stage(), "slot-plan");
    EXPECT_EQ(e.rule(), "read-before-write");
  }
}

TEST(VerifySlotPlanTest, TwoWritersOfOneSlotRejected) {
  // An NLJoin whose two scans both claim slot 0 — the static analog of two
  // concurrent pipelines writing the same frame slot.
  auto left = MakeScan(1, 0);
  auto right = MakeScan(2, 0);
  auto root = std::make_shared<SlotOp>();
  root->kind = PhysKind::kReduce;
  root->id = 0;
  root->out_lo = 0;
  root->out_hi = 1;
  root->monoid = MonoidKind::kSum;
  root->pred = CTrue();
  root->head = CSlot(0);
  auto join = std::make_shared<SlotOp>();
  join->kind = PhysKind::kNLJoin;
  join->id = 1;
  left->id = 2;
  right->id = 3;
  join->out_lo = 0;
  join->out_hi = 1;
  join->pred = CTrue();
  join->left = left;
  join->right = right;
  root->left = join;
  SlotPlan plan;
  plan.root = root;
  plan.n_slots = 1;
  VerifyReport r = VerifySlotPlan(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.findings[0].rule, "single-writer");
}

TEST(VerifySlotPlanTest, ParameterSlotClobberedByOperatorRejected) {
  auto scan = MakeScan(1, 0);
  auto root = std::make_shared<SlotOp>();
  root->kind = PhysKind::kReduce;
  root->id = 0;
  root->out_lo = 0;
  root->out_hi = 1;
  root->monoid = MonoidKind::kSum;
  root->pred = CTrue();
  root->head = CSlot(0);
  root->left = scan;
  SlotPlan plan;
  plan.root = root;
  plan.n_slots = 1;
  plan.param_slots = {{"min_age", 0}};  // shares slot 0 with the scan
  VerifyReport r = VerifySlotPlan(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "param-init")) << r.ToString();
}

TEST(VerifySlotPlanTest, BrokenPreorderNumberingRejected) {
  auto scan = MakeScan(7, 0);  // should be id 1
  auto root = std::make_shared<SlotOp>();
  root->kind = PhysKind::kReduce;
  root->id = 0;
  root->out_lo = 0;
  root->out_hi = 1;
  root->monoid = MonoidKind::kSum;
  root->pred = CTrue();
  root->head = CSlot(0);
  root->left = scan;
  SlotPlan plan;
  plan.root = root;
  plan.n_slots = 1;
  VerifyReport r = VerifySlotPlan(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "preorder-id")) << r.ToString();
}

// A compiled Reduce(GroupJoin(Scan d, Scan e)) plan whose GroupJoin is a
// private copy, so a test can corrupt one field of it.
struct GroupJoinPlan {
  SlotPlan plan;
  std::shared_ptr<SlotOp> gj;
  int left_slot = -1;   // d
  int right_slot = -1;  // e
};

GroupJoinPlan CompileGroupJoin(const Database& db) {
  CompiledQuery q = CompileOQL(
      db.schema(),
      "select d.name, sum(select e.salary from e in Employees "
      "where e.dno = d.dno) from d in Departments");
  GroupJoinPlan out;
  out.plan = CompileSlotPlan(PlanPhysical(q.simplified, db), db);
  auto root = std::make_shared<SlotOp>(*out.plan.root);
  out.gj = std::make_shared<SlotOp>(*root->left);
  root->left = out.gj;
  out.plan.root = root;
  out.left_slot = out.gj->left->var_slot;
  out.right_slot = out.gj->right->var_slot;
  return out;
}

TEST(VerifySlotPlanTest, GroupJoinPlanPasses) {
  GroupJoinPlan p = CompileGroupJoin(TinyCompany());
  ASSERT_EQ(p.gj->kind, PhysKind::kGroupJoin);
  EXPECT_EQ(p.gj->strategy, GroupJoinStrategy::kAggregate);
  VerifyReport r = VerifySlotPlan(p.plan);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST(VerifySlotPlanTest, GroupJoinKeyNotTheLeftRowRejected) {
  // Grouping by the right input's variable: left rows no longer map one to
  // one onto groups, so the fused operator would not be Figure 5's nest.
  GroupJoinPlan p = CompileGroupJoin(TinyCompany());
  ASSERT_EQ(p.gj->group_slots.size(), 1u);
  p.gj->group_slots[0].second = CSlot(p.right_slot);
  VerifyReport r = VerifySlotPlan(p.plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "groupjoin-keys")) << r.ToString();
}

TEST(VerifySlotPlanTest, GroupJoinSummaryReadingTheLeftRowRejected) {
  // An aggregate summary is built before any left row flows: a head that
  // reads the left input would fold slots nobody has written yet.
  GroupJoinPlan p = CompileGroupJoin(TinyCompany());
  p.gj->head = CSlot(p.left_slot);
  VerifyReport r = VerifySlotPlan(p.plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "groupjoin-summary")) << r.ToString();
}

TEST(VerifySlotPlanTest, GroupJoinNullSlotOutsideRightInputRejected) {
  // O7 converts NULLs of the padded (right) side; a null-slot on the left
  // row disagrees with the outer join the operator fuses.
  GroupJoinPlan p = CompileGroupJoin(TinyCompany());
  p.gj->null_slots = {p.left_slot};
  VerifyReport r = VerifySlotPlan(p.plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(HasRule(r, "O7-null-zero")) << r.ToString();
}

// ---------------------------------------------------------------------------
// Pipeline integration.

OptimizerOptions VerifyOn() {
  OptimizerOptions options;
  options.verify_plans = true;
  return options;
}

TEST(VerifyPipelineTest, VerifiedExecutionMatchesBaseline) {
  Database db = TinyCompany();
  for (const char* oql : {
           "select e.name from e in Employees where e.age > 30",
           "select d.name, sum(select e.salary from e in Employees "
           "where e.dno = d.dno) from d in Departments",
           "select e.name from e in Employees "
           "where exists c in e.children: c.age > 18",
           "select e.name, count(e.children) from e in Employees",
       }) {
    testing::RunBothWays(db, oql, VerifyOn());
  }
}

TEST(VerifyPipelineTest, CompileRecordsVerifyStagesInTrace) {
  Database db = TinyCompany();
  OptimizerOptions options = VerifyOn();
  options.trace = true;
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(
      "select d.name, sum(select e.salary from e in Employees "
      "where e.dno = d.dno) from d in Departments"));
  ASSERT_NE(q.trace, nullptr);
  std::vector<std::string> stages;
  for (const VerifyStageSummary& s : q.trace->verify_stages) {
    EXPECT_EQ(s.findings, 0) << s.stage;
    EXPECT_GT(s.checks, 0) << s.stage;
    stages.push_back(s.stage);
  }
  EXPECT_NE(std::find(stages.begin(), stages.end(), "calculus-input"),
            stages.end());
  EXPECT_NE(std::find(stages.begin(), stages.end(), "calculus-normalized"),
            stages.end());
  EXPECT_NE(std::find(stages.begin(), stages.end(), "algebra-unnested"),
            stages.end());
  // Execution adds the slot-plan layer.
  opt.Execute(q, db);
  bool saw_slots = false;
  for (const VerifyStageSummary& s : q.trace->verify_stages) {
    if (s.stage == "slot-plan") saw_slots = true;
  }
  EXPECT_TRUE(saw_slots);
}

TEST(VerifyPipelineTest, VerifyCompiledQueryCoversEveryStage) {
  Schema schema = CompanySchema();
  CompiledQuery q = CompileOQL(
      schema,
      "select d.name, sum(select e.salary from e in Employees "
      "where e.dno = d.dno) from d in Departments");
  std::vector<VerifyReport> reports = VerifyCompiledQuery(q, schema);
  EXPECT_TRUE(Stage(reports, "calculus-input").ok());
  EXPECT_TRUE(Stage(reports, "calculus-normalized").ok());
  EXPECT_TRUE(Stage(reports, "algebra-unnested").ok());
  for (const VerifyReport& r : reports) {
    EXPECT_TRUE(r.ok()) << r.ToString();
  }
  ThrowOnFindings(reports);  // must not throw
}

TEST(VerifyPipelineTest, CompileThrowsVerifyErrorOnCorruptIR) {
  // With typechecking disabled, the verifier is the only net left — an
  // ill-typed term must surface as VerifyError, not a wrong answer.
  Schema schema = CompanySchema();
  OptimizerOptions options = VerifyOn();
  options.typecheck = false;
  Optimizer opt(schema, options);
  ExprPtr bad = Expr::Comp(
      MonoidKind::kSum,
      Expr::Bin(BinOpKind::kAdd, Expr::Proj(Expr::Var("e"), "name"),
                Expr::Int(1)),
      {Qualifier::Generator("e", Expr::Var("Employees"))});
  try {
    opt.Compile(bad);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_EQ(e.stage(), "calculus-input");
    EXPECT_EQ(e.rule(), "Fig3-typing");
  }
}

// ---------------------------------------------------------------------------
// Pretty-printer round-trip (the plan-cache key soundness guard).

TEST(CalcParserTest, RoundTripsHandmadeTerms) {
  std::vector<ExprPtr> terms = {
      Expr::Var("x"),
      Expr::Param("min_age"),
      Expr::Int(42),
      Expr::Int(-7),
      Expr::Real(1.5),
      Expr::Str("hello world"),
      Expr::True(),
      Expr::Null(),
      Expr::Zero(MonoidKind::kBag),
      Expr::Proj(Expr::Proj(Expr::Var("e"), "manager"), "name"),
      Expr::Bin(BinOpKind::kAdd, Expr::Int(1),
                Expr::Bin(BinOpKind::kMul, Expr::Var("x"), Expr::Int(2))),
      Expr::Bin(BinOpKind::kMod, Expr::Var("x"), Expr::Int(3)),
      Expr::Un(UnOpKind::kNot, Expr::Var("p")),
      Expr::Un(UnOpKind::kNeg, Expr::Var("x")),
      Expr::Un(UnOpKind::kIsNull, Expr::Proj(Expr::Var("e"), "manager")),
      Expr::If(Expr::Var("p"), Expr::Int(1), Expr::Int(2)),
      Expr::Record({{"a", Expr::Var("x")}, {"b", Expr::Int(2)}}),
      Expr::Lambda("v", Expr::Bin(BinOpKind::kGt, Expr::Var("v"),
                                  Expr::Int(0))),
      Expr::Apply(Expr::Var("f"), Expr::Var("x")),
      Expr::Merge(MonoidKind::kSet, Expr::Var("a"), Expr::Var("b")),
      Expr::Comp(MonoidKind::kSum, Expr::Proj(Expr::Var("e"), "salary"),
                 {Qualifier::Generator("e", Expr::Var("Employees")),
                  Qualifier::Filter(Expr::Bin(BinOpKind::kGe,
                                              Expr::Proj(Expr::Var("e"), "age"),
                                              Expr::Param("min_age")))}),
      Expr::Singleton(MonoidKind::kList, Expr::Var("x")),
      // Gensym-style names ('$' inside an identifier) must survive.
      Expr::Comp(MonoidKind::kSet, Expr::Var("v$17"),
                 {Qualifier::Generator("v$17", Expr::Var("Employees"))}),
  };
  for (const ExprPtr& t : terms) {
    const std::string printed = PrintExpr(t);
    ExprPtr reparsed = ParseCalculus(printed);
    EXPECT_TRUE(ExprEqual(reparsed, t))
        << "printed:  " << printed << "\nreparsed: " << PrintExpr(reparsed);
    EXPECT_EQ(PrintExpr(reparsed), printed);
  }
}

TEST(CalcParserTest, NormalizedCorpusPrintsAreStableCacheKeys) {
  Schema schema = CompanySchema();
  for (const char* oql : {
           "select e.name from e in Employees where e.age > 30",
           // Distinct labels: `e.name, c.name` would translate to a record
           // with two `name` fields, which the verifier rejects as
           // ill-formed (projection would be ambiguous).
           "select distinct struct(E: e.name, C: c.name) "
           "from e in Employees, c in e.children",
           "select d.name, sum(select e.salary from e in Employees "
           "where e.dno = d.dno) from d in Departments",
           "select e.name from e in Employees "
           "where exists c in e.children: c.age > 18",
           "select e.name from e in Employees "
           "where e.age > $min_age and e.salary < $cap",
           "avg(select e.salary from e in Employees)",
       }) {
    CompiledQuery q = CompileOQL(schema, oql);
    const std::string key = PrintExpr(q.normalized);
    // The cache-key contract: print -> parse -> normalize -> print is the
    // identity on normalized terms.
    ExprPtr reparsed = ParseCalculus(key);
    EXPECT_EQ(PrintExpr(reparsed), key) << oql;
    EXPECT_EQ(PrintExpr(Normalize(reparsed)), key) << oql;
    // And the reparsed term still typechecks.
    EXPECT_NO_THROW(TypeCheck(reparsed, schema)) << oql;
  }
}

TEST(CalcParserTest, RejectsWhatThePrinterCannotEmit) {
  EXPECT_THROW(ParseCalculus(""), ParseError);
  EXPECT_THROW(ParseCalculus("1 2"), ParseError);          // trailing input
  EXPECT_THROW(ParseCalculus("(1 + 2"), ParseError);       // unbalanced
  EXPECT_THROW(ParseCalculus("set{ x | }"), ParseError);   // empty qualifier
  EXPECT_THROW(ParseCalculus("zero[nope]"), ParseError);   // unknown monoid
  EXPECT_THROW(ParseCalculus("<a=>"), ParseError);         // missing field
}

// Terms and values nest by recursion, and a projection chain builds a
// tall tree; past kMaxParseDepth levels each is a ParseError, not a stack
// overflow.
TEST(CalcParserTest, RejectsTermsNestedPastTheBound) {
  const size_t kDeep = 100000;
  EXPECT_THROW(ParseCalculus(std::string(kDeep, '(') + "1"), ParseError);
  EXPECT_THROW(ParseCalculus(std::string(kDeep, '[')), ParseError);
  std::string chain = "x";
  for (size_t i = 0; i < kDeep; ++i) chain += ".a";
  EXPECT_THROW(ParseCalculus(chain), ParseError);

  // Inside the bound the same shapes parse.
  std::string negs;
  for (int i = 2; i < kMaxParseDepth; ++i) negs += "-(";
  negs += "1" + std::string(kMaxParseDepth - 2, ')');
  EXPECT_NO_THROW(ParseCalculus(negs));
}

}  // namespace
}  // namespace ldb
