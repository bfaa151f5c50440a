// Fixed-seed regression corpus for the slot-frame executor (slot_plan.* and
// the frame engine in exec_pipeline.cc): the scoping corners that slot
// assignment must get right (variable shadowing, outer-join NULL padding,
// nested unnest variables, grouping), serial/parallel parity with tiny
// morsels, and the ExactSum order-independence the parallel merge relies on.

#include "src/runtime/slot_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/core/monoid.h"
#include "src/core/normalize.h"
#include "src/core/unnest.h"
#include "src/runtime/exec_pipeline.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

class SlotFrameTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();

  // Runs `oql` through the serial slot engine, the materializing executor,
  // and the parallel slot engine (tiny morsels so several really form), and
  // expects all three to equal the nested-loop baseline. Returns the serial
  // slot result for exact-value assertions.
  Value CheckEngines(const Database& db, const std::string& oql) {
    Value baseline = RunOQLBaseline(db, oql);
    Value slot_serial = RunOQL(db, oql);  // default: slot frames, 1 thread
    EXPECT_EQ(slot_serial, baseline) << oql;
    OptimizerOptions materializing;
    materializing.pipelined_execution = false;
    EXPECT_EQ(RunOQL(db, oql, materializing), baseline)
        << "materializing: " << oql;
    OptimizerOptions par;
    par.exec.n_threads = 4;
    par.exec.morsel_size = 2;
    EXPECT_EQ(RunOQL(db, oql, par), baseline) << "parallel: " << oql;
    return slot_serial;
  }
};

TEST_F(SlotFrameTest, ShadowedVariableInSubquery) {
  // The inner generator rebinds `e`; its domain `e.children` refers to the
  // OUTER e. The plan typechecker rejects rebinding along a scope chain, so
  // this is only reachable with typecheck off — and then slot compilation
  // must give the two e's distinct slots with the later binding shadowing
  // the earlier (reverse scope lookup), matching the Env-scoped oracles.
  const std::string oql =
      "select distinct e.name from e in Employees "
      "where e.age > sum(select e.age from e in e.children)";
  // Release surfaces the plan typechecker's TypeError directly; Debug
  // builds verify plans by default and report the same rejection as a
  // structured Fig6-typing violation (VerifyError). Both derive from Error.
  try {
    RunOQL(db_, oql);
    FAIL() << "rebinding must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rebinds variable 'e'"),
              std::string::npos)
        << e.what();
  }

  // The baseline's Env scoping handles the shadowing directly.
  // Ann 30 !> 5+25, Bob 40 > 0, Cal 25 !> 30, Dee 55 > 10.
  EXPECT_EQ(RunOQLBaseline(db_, oql),
            Value::Set({Value::Str("Bob"), Value::Str("Dee")}));

  // With the check off, the unnester name-captures during splicing (that is
  // WHY rebinding is rejected), so the plan's meaning drifts from the
  // calculus — but the plan itself still contains a rebound `e`, and the
  // plan executors must interpret it identically: slot compilation's
  // reverse scope lookup must shadow exactly like the materializing
  // executor's Env scoping does.
  OptimizerOptions unchecked;
  unchecked.typecheck = false;
  // The verifier re-runs the plan typecheck as its Fig6-typing rule, so it
  // must come off with the checker (it is on by default in Debug builds).
  unchecked.verify_plans = false;
  Value slot_serial = RunOQL(db_, oql, unchecked);
  unchecked.exec.n_threads = 4;
  unchecked.exec.morsel_size = 2;
  EXPECT_EQ(RunOQL(db_, oql, unchecked), slot_serial) << "parallel";
  unchecked.exec = {};
  unchecked.pipelined_execution = false;
  EXPECT_EQ(RunOQL(db_, oql, unchecked), slot_serial)
      << "materializing executor";
}

TEST_F(SlotFrameTest, OuterJoinNullPadding) {
  // "Empty" has no employees: the outer join pads the whole employee span
  // with NULLs and the count must come out 0, not vanish.
  Value r = CheckEngines(
      db_,
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments");
  auto row = [](const char* d, int n) {
    return Value::Tuple(
        {{"D", Value::Str(d)}, {"n", Value::Int(n)}});
  };
  EXPECT_EQ(r, Value::Set({row("Sales", 2), row("R&D", 2), row("Empty", 0)}));
}

TEST_F(SlotFrameTest, NullManagerNavigation) {
  // Cal's manager is NULL: the compiled projection must yield NULL and the
  // compiled comparison must treat it as false (not crash, not match).
  Value r = CheckEngines(
      db_, "select distinct e.name from e in Employees where e.manager.age > 45");
  EXPECT_EQ(r, Value::Set({Value::Str("Ann"), Value::Str("Dee")}));
}

TEST_F(SlotFrameTest, NestedUnnestVariables) {
  // Two dependent unnests: c ranges over e.children, m over
  // e.manager.children. Each unnest's path is compiled under the scope of
  // everything to its left; Cal's NULL manager makes the second unnest empty.
  CheckEngines(db_,
               "select distinct struct(E: e.name, C: c.name, M: m.name) "
               "from e in Employees, c in e.children, m in e.manager.children");
}

TEST_F(SlotFrameTest, GroupByAggregates) {
  // HashNest below the root: in parallel this exercises the per-morsel
  // partial group tables and their morsel-order merge (Mode B).
  CheckEngines(db_,
               "select distinct e.dno, sum(e.salary), avg(e.age) "
               "from Employees e group by e.dno");
  CheckEngines(db_,
               "select distinct e.dno, count(select c from c in e.children) "
               "from Employees e where e.age > 20 group by e.dno");
}

TEST_F(SlotFrameTest, QuantifierSaturationParity) {
  // Quantifier roots short-circuit; the parallel path uses a shared stop
  // flag instead — both must land on the same answer.
  Value some = CheckEngines(
      db_, "exists e in Employees: e.salary > 110000");
  EXPECT_EQ(some, Value::Bool(true));
  Value all = CheckEngines(db_, "for all e in Employees: e.age > 26");
  EXPECT_EQ(all, Value::Bool(false));
}

TEST_F(SlotFrameTest, ParallelParityOnGeneratedWorkload) {
  // A larger synthetic company so morsels are plentiful and group tables
  // have real fan-in; serial and parallel slot execution must agree exactly
  // (kSum/kAvg via ExactSum, group order via morsel-order merge).
  workload::CompanyParams params;
  params.n_departments = 7;
  params.n_employees = 500;
  params.n_managers = 10;
  params.seed = 20260805;
  Database db = workload::MakeCompanyDatabase(params);
  const char* queries[] = {
      "sum(select e.salary from e in Employees where e.age > 30)",
      "avg(select e.salary from e in Employees)",
      "select distinct e.dno, sum(e.salary), count(select x from x in "
      "e.children) from Employees e group by e.dno",
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments",
      "select distinct e.name from e in Employees "
      "where e.salary < max(select m.salary from m in Managers "
      "where e.age > m.age)",
      // A nest over an outer unnest stays a HashNest: the spine-nest mode.
      "select distinct struct(E: e.name, K: count(select c from c in "
      "e.children where c.age > 3)) from e in Employees",
  };
  OptimizerOptions par;
  par.exec.n_threads = 8;
  par.exec.morsel_size = 16;
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    EXPECT_EQ(RunOQL(db, q, par), RunOQL(db, q));
  }
}

TEST_F(SlotFrameTest, ExactSumIsOrderAndPartitionIndependent) {
  // The parallel engine splits a sum across morsels and absorbs the
  // partials; ExactSum promises the result is bit-identical to one serial
  // pass regardless of order or partitioning — including catastrophic
  // cancellation cases naive compensated sums get wrong.
  std::vector<double> xs = {1e100,  3.14,   -1e100, 1e-300, 2.5e17,
                            -0.125, 1e-300, 7.0,    -2.5e17, 0.625};
  auto bits = [](double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  Accumulator serial(MonoidKind::kSum);
  for (double x : xs) serial.Add(Value::Real(x));
  double want = serial.Finish().AsReal();

  // Partition into three uneven morsels, absorb out of order.
  Accumulator a(MonoidKind::kSum), b(MonoidKind::kSum), c(MonoidKind::kSum);
  for (size_t i = 0; i < 3; ++i) a.Add(Value::Real(xs[i]));
  for (size_t i = 3; i < 4; ++i) b.Add(Value::Real(xs[i]));
  for (size_t i = 4; i < xs.size(); ++i) c.Add(Value::Real(xs[i]));
  Accumulator merged(MonoidKind::kSum);
  merged.Absorb(c);
  merged.Absorb(a);
  merged.Absorb(b);
  EXPECT_EQ(bits(merged.Finish().AsReal()), bits(want));

  // Reversed input order, one accumulator.
  Accumulator rev(MonoidKind::kSum);
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
    rev.Add(Value::Real(*it));
  }
  EXPECT_EQ(bits(rev.Finish().AsReal()), bits(want));
}

TEST_F(SlotFrameTest, MixedIntRealSumTyping) {
  // A sum stays Int while only ints are seen, even when merged from
  // partials; one real anywhere makes the whole result Real.
  Accumulator ints(MonoidKind::kSum);
  ints.Add(Value::Int(2));
  ints.Add(Value::Int(40));
  Accumulator more(MonoidKind::kSum);
  more.Add(Value::Int(-1));
  ints.Absorb(more);
  Value v = ints.Finish();
  EXPECT_EQ(v, Value::Int(41));

  Accumulator mixed(MonoidKind::kSum);
  mixed.Add(Value::Int(2));
  mixed.Add(Value::Real(0.5));
  EXPECT_EQ(mixed.Finish(), Value::Real(2.5));
}

TEST_F(SlotFrameTest, PrintSlotPlanShowsSpans) {
  AlgPtr logical = UnnestComp(
      Normalize(ParseOQL(
          "select distinct struct(E: e.name, C: c.name) "
          "from e in Employees, c in e.children where e.age > 26")),
      db_.schema());
  PhysPtr phys = PlanPhysical(logical, db_);
  SlotPlan plan = CompileSlotPlan(phys, db_);
  EXPECT_GE(plan.n_slots, 2);  // e and c at minimum
  std::string printed = PrintSlotPlan(plan);
  EXPECT_NE(printed.find("frame["), std::string::npos) << printed;
  EXPECT_NE(printed.find("TableScan Employees var@"), std::string::npos)
      << printed;
  EXPECT_NE(printed.find("span["), std::string::npos) << printed;

  // The compiled plan is runnable as-is (without going through RunOQL).
  Value direct = ExecuteSlotPlan(plan, db_);
  EXPECT_EQ(direct, RunOQLBaseline(db_,
                                   "select distinct struct(E: e.name, C: "
                                   "c.name) from e in Employees, c in "
                                   "e.children where e.age > 26"));
}

TEST_F(SlotFrameTest, NonComprehensionTopLevelsAgreeAcrossExecutors) {
  // Records, arithmetic over aggregates, and empty aggregates at the top
  // level unnest as first{ e | } and must match the baseline on every
  // executor, with the verifier on, from an empty extent upwards.
  const char* kQueries[] = {
      "struct(total: sum(select e.salary from e in Employees), "
      "headcount: count(select e from e in Employees))",
      "count(select e from e in Employees where e.age > 30) + "
      "count(select d from d in Departments)",
      "1 + 2 * 3",
      "struct(oldest: max(select e.age from e in Employees where e.age > 999), "
      "n: count(select e from e in Employees where e.age > 999))",
      "max(select e.age from e in Employees where e.age > 999) + 1",
  };
  OptimizerOptions serial, par, materializing, paths;
  par.exec.n_threads = 4;
  par.exec.morsel_size = 4;
  materializing.pipelined_execution = false;
  paths.materialize_paths = true;
  for (int n : {0, 30, 3000}) {
    workload::CompanyParams params;
    params.n_employees = n;
    Database db = workload::MakeCompanyDatabase(params);
    for (const char* q : kQueries) {
      const Value baseline = RunOQLBaseline(db, q);
      for (OptimizerOptions o : {serial, par, materializing, paths}) {
        o.verify_plans = true;
        EXPECT_EQ(RunOQL(db, q, o), baseline)
            << n << " employees, threads=" << o.exec.n_threads
            << " pipelined=" << o.pipelined_execution
            << " materialize_paths=" << o.materialize_paths << ": " << q;
      }
    }
  }
}

TEST_F(SlotFrameTest, ComprehensionInPhysicalPlanIsAnInternalError) {
  // Unnesting leaves no comprehension behind (Theorem 1), so slot
  // compilation has no interpreter escape: a head that still holds one is a
  // compiler bug, reported rather than evaluated.
  AlgPtr logical =
      AlgOp::Reduce(AlgOp::Unit(), MonoidKind::kFirst,
                    ParseOQL("count(select e from e in Employees)"),
                    Expr::True());
  PhysPtr phys = PlanPhysical(logical, db_);
  EXPECT_THROW(CompileSlotPlan(phys, db_), InternalError);
}

// GroupJoin (an outer join and the nest above it as one operator): every
// strategy on TinyCompany and on the company the nested benchmark workload
// serves (2000 employees, 50 departments, 20 managers, data seed 1).
class GroupJoinTest : public SlotFrameTest {
 protected:
  // The plan's GroupJoin strategies, in pre-order.
  std::string Strategies(const Database& db, const std::string& oql) {
    Optimizer opt(db.schema());
    std::string out;
    Walk(PlanPhysical(opt.Compile(ParseOQL(oql)).simplified, db), &out);
    return out;
  }

  // CheckEngines, after asserting the plan runs these strategies.
  Value Check(const Database& db, const std::string& oql,
              const std::string& strategies) {
    EXPECT_EQ(Strategies(db, oql), strategies) << oql;
    return CheckEngines(db, oql);
  }

  static Database NestedWorkloadCompany() {
    workload::CompanyParams params;
    params.n_employees = 2000;
    params.n_departments = 50;
    params.n_managers = 20;
    params.seed = 1;
    return workload::MakeCompanyDatabase(params);
  }

 private:
  static void Walk(const PhysPtr& op, std::string* out) {
    if (!op) return;
    if (op->kind == PhysKind::kGroupJoin) {
      if (!out->empty()) *out += ' ';
      *out += GroupJoinStrategyName(op->strategy);
    }
    Walk(op->left, out);
    Walk(op->right, out);
  }
};

// Correlated max over Managers under each comparison; Bob (40) ties Mo (40)
// and Ann (30)/Dee (55) straddle Meg (50), so equal keys sit on the boundary.
std::string ManagerMax(const std::string& cmp) {
  return "select distinct struct(E: e.name, M: max(select m.salary from m in "
         "Managers where " + cmp + ")) from e in Employees";
}

TEST_F(GroupJoinTest, SortedStrategyEveryComparison) {
  const Database big = NestedWorkloadCompany();
  for (const char* cmp : {"e.age > m.age", "e.age >= m.age", "e.age < m.age",
                          "e.age <= m.age", "m.age < e.age", "m.age >= e.age"}) {
    Check(db_, ManagerMax(cmp), "sorted");
    Check(big, ManagerMax(cmp), "sorted");
  }
  // Bob's row at the tie: > excludes Mo, >= includes him.
  auto bob = [&](const char* cmp) {
    const Value rows = RunOQL(db_, ManagerMax(cmp));
    for (const Value& row : rows.AsElems()) {
      if (row.Field("E") == Value::Str("Bob")) return row.Field("M");
    }
    return Value::Str("missing");
  };
  EXPECT_EQ(bob("e.age > m.age"), Value::Null());
  EXPECT_EQ(bob("e.age >= m.age"), Value::Real(150000));
  // Every order-independent monoid, and quantifiers.
  for (const char* q : {
           "select distinct struct(E: e.name, n: count(select m from m in "
           "Managers where e.age > m.age)) from e in Employees",
           "select distinct struct(E: e.name, s: sum(select m.salary from m "
           "in Managers where e.age <= m.age)) from e in Employees",
           "select distinct struct(E: e.name, a: avg(select m.age from m in "
           "Managers where e.age < m.age)) from e in Employees",
           "select distinct struct(E: e.name, lo: min(select m.age from m in "
           "Managers where e.age >= m.age)) from e in Employees",
           "select distinct struct(E: e.name, x: exists m in Managers: "
           "e.age > m.age and m.salary > 160000.0) from e in Employees",
           "select distinct e.name from e in Employees where for all m in "
           "(select m from m in Managers where e.age > m.age): m.salary > "
           "160000.0",
       }) {
    Check(db_, q, "sorted");
    Check(big, q, "sorted");
  }
}

TEST_F(GroupJoinTest, SortedStrategyKeyKindsAndNulls) {
  // Real probes against int keys, and real against real. Real arithmetic
  // cannot fail, so it keeps the summary; int arithmetic may overflow, so
  // it is evaluated per pair.
  Check(db_, ManagerMax("e.salary * 0.0005 > m.age"), "sorted");
  Check(db_, ManagerMax("e.salary * 1.5 >= m.salary"), "sorted");
  Check(db_, ManagerMax("e.salary > m.age * 2000"), "loop");
  // Cal's manager is NULL: a NULL `a` matches nothing, and yields the zero.
  Value r = Check(db_, ManagerMax("e.manager.age >= m.age"), "sorted");
  for (const Value& row : r.AsElems()) {
    if (row.Field("E") == Value::Str("Cal")) {
      EXPECT_EQ(row.Field("M"), Value::Null());
    }
  }
  // An R-only filter and an L-only guard ride along.
  Check(db_, ManagerMax("e.age > m.age and m.age > 41 and e.salary > 70000.0"),
        "sorted");
}

TEST_F(GroupJoinTest, SortedStrategyFallsBackOnNaNKeys) {
  // Value::Compare orders NaN equal to every number, which is no strict weak
  // order: the operator must fold in build order instead of sorting.
  Database db = testing::TinyCompany();
  db.Insert("Manager",
            Value::Tuple({{"name", Value::Str("Nan")},
                          {"age", Value::Int(45)},
                          {"salary", Value::Real(std::nan(""))},
                          {"children", Value::Set({})}}));
  for (const char* cmp : {"e.salary > m.salary", "e.salary >= m.salary",
                          "e.salary < m.salary", "e.salary <= m.salary"}) {
    Check(db, "select distinct struct(E: e.name, M: max(select m.age from m "
              "in Managers where " + std::string(cmp) + ")) from e in "
              "Employees",
          "sorted");
  }
}

TEST_F(GroupJoinTest, AggregateStrategy) {
  const Database big = NestedWorkloadCompany();
  for (const char* q : {
           // type-A, the count bug, and a collection (bag) head.
           "select distinct struct(D: d.name, total: sum(select e.salary "
           "from e in Employees where e.dno = d.dno)) from d in Departments",
           "select distinct d.name from d in Departments where count(select "
           "e from e in Employees where e.dno = d.dno) = 0",
           "select distinct struct(D: d.name, E: (select e.name from e in "
           "Employees where e.dno = d.dno)) from d in Departments",
           // An R-only filter and an L-only guard.
           "select distinct struct(D: d.name, total: sum(select e.salary "
           "from e in Employees where e.dno = d.dno and e.age > 26 and "
           "d.budget > 500.0)) from d in Departments",
           // No equality key: one aggregate for every left row.
           "select distinct struct(D: d.name, n: count(select m from m in "
           "Managers where m.age > 45)) from d in Departments",
       }) {
    Check(db_, q, "aggregate");
    Check(big, q, "aggregate");
  }
}

// A summary holds folds for right rows no left row may select. One that
// leaves int64 fails only the left rows that select it, as under the
// nested-loop semantics; and a head that can overflow keeps to the loop.
TEST_F(GroupJoinTest, SummaryOverflowFailsOnlyTheRowsThatSelectIt) {
  Schema schema;
  schema.AddClass(ClassDecl{"L", "Ls", {{"k", Type::Int()}}});
  schema.AddClass(
      ClassDecl{"R", "Rs", {{"k", Type::Int()}, {"v", Type::Int()}}});
  Database db(schema);
  db.Insert("L", Value::Tuple({{"k", Value::Int(1)}}));
  for (int k : {5, 6}) {
    db.Insert("R", Value::Tuple({{"k", Value::Int(k)},
                                 {"v", Value::Int(INT64_MAX)}}));
  }
  const std::string sorted =
      "select distinct struct(K: l.k, S: sum(select r.v from r in Rs "
      "where l.k > r.k)) from l in Ls";
  const std::string aggregate =
      "select distinct struct(K: l.k, S: sum(select r.v from r in Rs "
      "where l.k = r.k)) from l in Ls";
  const std::string doubled =
      "select distinct struct(K: l.k, S: sum(select r.v * 2 from r in Rs "
      "where l.k = r.k)) from l in Ls";
  const Value zero = Value::Set(
      {Value::Tuple({{"K", Value::Int(1)}, {"S", Value::Int(0)}})});
  EXPECT_EQ(Check(db, sorted, "sorted"), zero);
  EXPECT_EQ(Check(db, aggregate, "aggregate"), zero);
  EXPECT_EQ(Check(db, doubled, "loop"), zero);

  // A left row that selects both rows fails, in every engine.
  db.Insert("L", Value::Tuple({{"k", Value::Int(7)}}));
  db.Insert("R", Value::Tuple({{"k", Value::Int(7)}, {"v", Value::Int(1)}}));
  db.Insert("R", Value::Tuple({{"k", Value::Int(7)},
                               {"v", Value::Int(INT64_MAX)}}));
  for (const std::string& oql : {sorted, aggregate}) {
    EXPECT_THROW(RunOQLBaseline(db, oql), EvalError) << oql;
    EXPECT_THROW(RunOQL(db, oql), EvalError) << oql;
  }
}

TEST_F(GroupJoinTest, LoopStrategy) {
  const Database big = NestedWorkloadCompany();
  for (const char* q : {
           // A hash bucket with a residual that reads both sides.
           "select distinct struct(D: d.name, total: sum(select e.salary "
           "from e in Employees where e.dno = d.dno and e.salary > "
           "d.budget * 50)) from d in Departments",
           // A head that reads the left row, and a saturating quantifier.
           "select distinct d.name from d in Departments where for all e in "
           "Employees: e.dno = d.dno or e.salary > d.budget",
           "select distinct struct(E: e.name, x: exists m in Managers: "
           "m.age = e.age and m.salary > e.salary) from e in Employees",
           // A head that can fail: only Sales is paired, and its employees
           // divide by dno - 1 = -1, but a summary would also fold R&D's
           // (dno - 1 = 0). The pair-by-pair loop evaluates only what the
           // nested query evaluates.
           "select distinct struct(D: d.name, x: sum(select e.salary / "
           "(e.dno - 1) from e in Employees where e.dno = d.dno)) from d in "
           "Departments where d.dno = 0",
       }) {
    Check(db_, q, "loop");
    Check(big, q, "loop");
  }
}

TEST_F(GroupJoinTest, EmptyRightExtent) {
  // Departments but no employees or managers: every summary is empty and
  // every left row leaves with the monoid's zero.
  Database db(workload::CompanySchema());
  for (int dno : {0, 1}) {
    db.Insert("Department", Value::Tuple({{"dno", Value::Int(dno)},
                                          {"name", Value::Str("d")},
                                          {"budget", Value::Real(10.0)}}));
  }
  Check(db,
        "select distinct struct(D: d.dno, total: sum(select e.salary from e "
        "in Employees where e.dno = d.dno)) from d in Departments",
        "aggregate");
  Check(db,
        "select distinct struct(D: d.dno, top: max(select e.salary from e in "
        "Employees where d.budget > e.salary)) from d in Departments",
        "sorted");
  Check(db,
        "select distinct d.dno from d in Departments where for all e in "
        "Employees: e.salary > d.budget",
        "loop");
}

TEST_F(GroupJoinTest, ParameterOnTheRightSide) {
  // The summary is built per execution, after parameters are written: two
  // bindings of one compiled plan see different right sides.
  const Database big = NestedWorkloadCompany();
  const std::string q =
      "select distinct struct(D: d.name, total: sum(select e.salary from e "
      "in Employees where e.dno = d.dno and e.age > $1)) from d in "
      "Departments";
  Optimizer opt(big.schema());
  CompiledQuery compiled = opt.Compile(ParseOQL(q));
  SlotPlan plan = CompileSlotPlan(PlanPhysical(compiled.simplified, big), big);
  for (int age : {25, 40}) {
    std::string literal = q;
    literal.replace(literal.find("$1"), 2, std::to_string(age));
    const Value want = Check(big, literal, "aggregate");
    std::map<std::string, Value> params = {{"1", Value::Int(age)}};
    for (int threads : {1, 4}) {
      ExecOptions exec;
      exec.params = &params;
      exec.n_threads = threads;
      exec.morsel_size = 2;
      EXPECT_EQ(ExecuteSlotPlan(plan, big, exec), want)
          << "$1=" << age << " threads=" << threads;
    }
  }
}

TEST_F(SlotFrameTest, MorselSizeExtremes) {
  // morsel_size 1 (one row per morsel) and a size far larger than the
  // extent (single morsel) must both match the serial result.
  const char* q =
      "select distinct e.dno, sum(e.salary) from Employees e group by e.dno";
  Value serial = RunOQL(db_, q);
  for (size_t morsel : {size_t{1}, size_t{100000}}) {
    OptimizerOptions par;
    par.exec.n_threads = 3;
    par.exec.morsel_size = morsel;
    EXPECT_EQ(RunOQL(db_, q, par), serial) << "morsel_size=" << morsel;
  }
}

}  // namespace
}  // namespace ldb
