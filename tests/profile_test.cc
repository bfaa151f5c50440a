// Exactness tests for the EXPLAIN ANALYZE substrate (runtime/profile.*):
// per-operator row counts on fixed plans over the hand-computable
// TinyCompany, serial == parallel row totals at several thread/morsel
// settings, JSON round-trips, the optimizer CompileTrace, and the
// byte-identical-results guarantee when profiling is disabled.

#include "src/runtime/profile.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/lambdadb.h"
#include "src/runtime/json.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// Pre-order operator list; the index of each PhysOp in the result IS its
// profiler id (the numbering CompileSlotPlan assigns).
void Preorder(const PhysPtr& op, std::vector<const PhysOp*>* out) {
  if (!op) return;
  out->push_back(op.get());
  Preorder(op->left, out);
  Preorder(op->right, out);
}

int FindOpId(const std::vector<const PhysOp*>& ops, PhysKind kind,
             const std::string& extent = "") {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i]->kind == kind && (extent.empty() || ops[i]->extent == extent)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

struct ProfiledRun {
  Value value;
  QueryProfiler prof;
  ExecTotals totals;
  PhysPtr phys;
};

// Compiles `oql` through the full pipeline and executes it with a profiler
// and the always-on totals attached, returning the result, the profile, the
// totals, and the physical plan.
ProfiledRun RunProfiled(const Database& db, const std::string& oql,
                        int threads = 1, size_t morsel = 2048) {
  OptimizerOptions options;
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(oql));
  ProfiledRun r;
  r.phys = PlanPhysical(q.simplified, db, options.physical);
  ExecOptions exec;
  exec.n_threads = threads;
  exec.morsel_size = morsel;
  exec.profiler = &r.prof;
  exec.totals = &r.totals;
  r.value = ExecutePipelined(r.phys, db, exec);
  return r;
}

class ProfileTest : public ::testing::Test {
 protected:
  Database db_ = testing::TinyCompany();
};

TEST_F(ProfileTest, Figure1StylePlanExactRows) {
  // Reduce(GroupJoin(Scan(Departments), Scan(Employees))) — the Figure 1
  // nested count after unnesting, its outer join and nest fused. Every row
  // count is knowable by hand: 3 departments, 4 employees pre-aggregated
  // into 2 dno keys (Sales, R&D), one output row per department.
  ProfiledRun r = RunProfiled(
      db_,
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments");
  std::vector<const PhysOp*> ops;
  Preorder(r.phys, &ops);

  const int dept = FindOpId(ops, PhysKind::kTableScan, "Departments");
  const int emp = FindOpId(ops, PhysKind::kTableScan, "Employees");
  const int gj = FindOpId(ops, PhysKind::kGroupJoin);
  ASSERT_GE(dept, 0);
  ASSERT_GE(emp, 0);
  ASSERT_GE(gj, 0) << PrintPhysicalPlan(r.phys);

  EXPECT_EQ(r.prof.Find(dept)->rows_out, 3u);
  EXPECT_EQ(r.prof.Find(emp)->rows_out, 4u);  // drained into the summary
  EXPECT_EQ(r.prof.Find(gj)->build_rows, 4u);
  EXPECT_EQ(r.prof.Find(gj)->groups, 2u);     // dno keys 0 and 1
  EXPECT_EQ(r.prof.Find(gj)->rows_out, 3u);   // one per department
  EXPECT_EQ(r.prof.Find(0)->rows_out, 3u);  // root Reduce folds 3 group rows
  EXPECT_EQ(r.prof.run.mode, "serial");
  EXPECT_GT(r.prof.run.wall_ns, 0);

  // Every operator in the plan registered stats.
  EXPECT_EQ(r.prof.Operators().size(), ops.size());
}

TEST_F(ProfileTest, GroupJoinCountsOneShortCircuitPerSaturatedFold) {
  // The for-all's head reads both sides, so each department folds over
  // every employee and stops at its first false head: Sales (budget 0)
  // never saturates; R&D (70 000: Cal earns 60 000) and Empty (140 000)
  // each stop once.
  const std::string oql =
      "select distinct d.name from d in Departments where for all e in "
      "Employees: e.salary > d.budget * 70.0";
  const Value saturated = RunOQLBaseline(
      db_,
      "count(select d from d in Departments where not(for all e in "
      "Employees: e.salary > d.budget * 70.0))");
  ASSERT_EQ(saturated, Value::Int(2));
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ProfiledRun r = RunProfiled(db_, oql, threads, /*morsel=*/1);
    std::vector<const PhysOp*> ops;
    Preorder(r.phys, &ops);
    const int gj = FindOpId(ops, PhysKind::kGroupJoin);
    ASSERT_GE(gj, 0) << PrintPhysicalPlan(r.phys);
    EXPECT_EQ(ops[static_cast<size_t>(gj)]->strategy, GroupJoinStrategy::kLoop);
    EXPECT_EQ(r.prof.Find(gj)->short_circuits, 2u);
    EXPECT_EQ(r.prof.Find(gj)->rows_out, 3u);
    EXPECT_EQ(r.prof.Find(0)->short_circuits, 0u);  // the set root never stops
    EXPECT_EQ(r.value, Value::Set({Value::Str("Sales")}));
  }
}

TEST_F(ProfileTest, UnnestPlanExactRows) {
  // Ann has 2 children, Bob 0, Cal 1, Dee 1: the Unnest emits 4 rows from a
  // 4-row scan (empty collections drop).
  ProfiledRun r = RunProfiled(
      db_,
      "select distinct struct(E: e.name, C: c.name) "
      "from e in Employees, c in e.children");
  std::vector<const PhysOp*> ops;
  Preorder(r.phys, &ops);
  const int scan = FindOpId(ops, PhysKind::kTableScan, "Employees");
  const int unnest = FindOpId(ops, PhysKind::kUnnest);
  ASSERT_GE(scan, 0);
  ASSERT_GE(unnest, 0) << PrintPhysicalPlan(r.phys);
  EXPECT_EQ(r.prof.Find(scan)->rows_out, 4u);
  EXPECT_EQ(r.prof.Find(unnest)->rows_out, 4u);
  EXPECT_EQ(r.prof.Find(0)->rows_out, 4u);
}

TEST_F(ProfileTest, QuantifierShortCircuitCounted) {
  // Ann (the first employee) already satisfies the predicate: the Reduce
  // saturates after one row and stops pulling from the scan.
  ProfiledRun r = RunProfiled(db_, "exists e in Employees: e.salary > 70000");
  EXPECT_EQ(r.value, Value::Bool(true));
  std::vector<const PhysOp*> ops;
  Preorder(r.phys, &ops);
  const int scan = FindOpId(ops, PhysKind::kTableScan, "Employees");
  ASSERT_GE(scan, 0);
  EXPECT_EQ(r.prof.Find(0)->short_circuits, 1u);
  EXPECT_EQ(r.prof.Find(scan)->rows_out, 1u);
}

TEST_F(ProfileTest, SerialAndParallelRowTotalsAgree) {
  // A workload large enough for real morsels. Only the row and byte
  // counters are compared: next_calls and times legitimately differ (each
  // worker pays its own end-of-stream Next(), times accumulate across
  // threads).
  workload::CompanyParams params;
  params.n_departments = 7;
  params.n_employees = 500;
  params.n_managers = 10;
  params.seed = 20260805;
  Database db = workload::MakeCompanyDatabase(params);
  const char* queries[] = {
      "sum(select e.salary from e in Employees where e.age > 30)",
      "select distinct e.dno, sum(e.salary), avg(e.age) "
      "from Employees e group by e.dno",
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments",
      // A nest over an outer unnest stays a HashNest: the spine-nest mode,
      // one group per employee, so each group's bytes live in one morsel.
      "select distinct struct(E: e.name, K: count(select c from c in "
      "e.children where c.age > 3)) from e in Employees",
  };
  struct Setting {
    int threads;
    size_t morsel;
  };
  const Setting settings[] = {{4, 16}, {8, 7}, {2, 64}};
  std::set<std::string> modes;
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    ProfiledRun serial = RunProfiled(db, q);
    modes.insert(serial.prof.run.mode);
    // No query here saturates, so every run folds the same root rows.
    ASSERT_EQ(serial.prof.Find(0)->short_circuits, 0u);
    EXPECT_EQ(serial.totals.root_rows, serial.prof.Find(0)->rows_out);
    EXPECT_EQ(serial.totals.mode, "serial");
    EXPECT_TRUE(serial.totals.workers.empty());
    EXPECT_TRUE(serial.totals.morsels.empty());
    for (const Setting& s : settings) {
      SCOPED_TRACE(std::to_string(s.threads) + " threads, morsel " +
                   std::to_string(s.morsel));
      ProfiledRun par = RunProfiled(db, q, s.threads, s.morsel);
      modes.insert(par.prof.run.mode);
      EXPECT_EQ(par.value, serial.value);
      auto sops = serial.prof.Operators();
      auto pops = par.prof.Operators();
      ASSERT_EQ(sops.size(), pops.size());
      for (size_t i = 0; i < sops.size(); ++i) {
        EXPECT_EQ(sops[i]->op_id, pops[i]->op_id);
        EXPECT_EQ(sops[i]->rows_out, pops[i]->rows_out)
            << sops[i]->label << " (op " << sops[i]->op_id << ")";
        EXPECT_EQ(sops[i]->build_rows, pops[i]->build_rows) << sops[i]->label;
        EXPECT_EQ(sops[i]->groups, pops[i]->groups) << sops[i]->label;
        EXPECT_EQ(sops[i]->mem_bytes, pops[i]->mem_bytes) << sops[i]->label;
      }
      // The always-on run record agrees with the profile's copy.
      uint64_t worker_morsels = 0;
      for (const WorkerStats& w : par.totals.workers) {
        worker_morsels += w.morsels;
      }
      EXPECT_EQ(par.totals.root_rows, serial.totals.root_rows);
      EXPECT_EQ(par.totals.mode, par.prof.run.mode);
      EXPECT_LE(par.totals.workers.size(), static_cast<size_t>(s.threads));
      EXPECT_EQ(par.totals.morsels.size(), worker_morsels);
      EXPECT_EQ(par.prof.run.morsels.size(), par.totals.morsels.size());
      if (par.prof.run.mode != "serial") {
        // Worker/morsel accounting is internally consistent.
        EXPECT_LE(par.prof.run.workers.size(), static_cast<size_t>(s.threads));
        EXPECT_FALSE(par.prof.run.morsels.empty());
        uint64_t wrows = 0, mrows = 0;
        for (const WorkerStats& w : par.prof.run.workers) wrows += w.rows;
        for (const MorselStats& m : par.prof.run.morsels) mrows += m.rows;
        EXPECT_EQ(wrows, mrows);
      }
    }
  }
  EXPECT_EQ(modes, (std::set<std::string>{"serial", "spine-reduce",
                                          "spine-nest"}));
}

TEST_F(ProfileTest, ProfileJsonRoundTrips) {
  // Parallel run so workers/morsels/mode are populated too.
  workload::CompanyParams params;
  params.n_employees = 200;
  params.seed = 7;
  Database db = workload::MakeCompanyDatabase(params);
  ProfiledRun r = RunProfiled(
      db,
      "select distinct e.dno, sum(e.salary) from Employees e group by e.dno",
      4, 16);
  std::string s1 = ProfileToJson(r.prof);
  QueryProfiler parsed = ProfileFromJson(s1);
  EXPECT_EQ(ProfileToJson(parsed), s1);

  EXPECT_EQ(parsed.run.threads, r.prof.run.threads);
  EXPECT_EQ(parsed.run.mode, r.prof.run.mode);
  auto want = r.prof.Operators();
  auto got = parsed.Operators();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i]->op_id, want[i]->op_id);
    EXPECT_EQ(got[i]->kind, want[i]->kind);
    EXPECT_EQ(got[i]->label, want[i]->label);
    EXPECT_EQ(got[i]->rows_out, want[i]->rows_out);
    EXPECT_EQ(got[i]->next_calls, want[i]->next_calls);
    EXPECT_EQ(got[i]->open_ns, want[i]->open_ns);  // %.17g is bit-exact
    EXPECT_EQ(got[i]->next_ns, want[i]->next_ns);
  }
  EXPECT_EQ(parsed.run.workers.size(), r.prof.run.workers.size());
  EXPECT_EQ(parsed.run.morsels.size(), r.prof.run.morsels.size());

  EXPECT_THROW(ProfileFromJson("{\"threads\": }"), ParseError);
  EXPECT_THROW(ProfileFromJson("not json"), ParseError);
}

// The one JSON string writer and reader (src/runtime/json.h) agree on every
// character that needs escaping, inside a profile document as well.
TEST_F(ProfileTest, JsonStringWithEscapesRoundTrips) {
  const std::string s = "q\"b\\n\nr\rt\tc\x01.";
  const std::string quoted = JsonQuote(s);
  EXPECT_EQ(quoted.find('\n'), std::string::npos) << quoted;
  EXPECT_EQ(quoted.find('\x01'), std::string::npos) << quoted;
  EXPECT_EQ(JsonReader(quoted).ParseString(), s);

  QueryProfiler prof;
  prof.Register(0, PhysKind::kReduce, s);
  QueryProfiler parsed = ProfileFromJson(ProfileToJson(prof));
  ASSERT_NE(parsed.Find(0), nullptr);
  EXPECT_EQ(parsed.Find(0)->label, s);
}

TEST_F(ProfileTest, DisabledProfilingResultsIdentical) {
  const char* queries[] = {
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments",
      "avg(select e.salary from e in Employees)",
      "for all e in Employees: e.age > 20",
  };
  for (const char* q : queries) {
    SCOPED_TRACE(q);
    Value plain = RunOQL(db_, q);  // profiler == nullptr
    EXPECT_EQ(RunProfiled(db_, q).value, plain);
    EXPECT_EQ(RunProfiled(db_, q, 4, 2).value, plain);
  }
}

TEST_F(ProfileTest, CompileTraceRecordsStagesAndRules) {
  OptimizerOptions options;
  options.trace = true;
  Optimizer opt(db_.schema(), options);
  const std::string oql =
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments";
  CompiledQuery q = opt.Compile(ParseOQL(oql));
  ASSERT_NE(q.trace, nullptr);

  auto has_stage = [&](const std::string& name) {
    for (const StageTiming& st : q.trace->stages) {
      if (st.stage == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_stage("typecheck-calculus"));
  EXPECT_TRUE(has_stage("normalize"));
  EXPECT_TRUE(has_stage("unnest"));
  EXPECT_TRUE(has_stage("simplify"));
  EXPECT_FALSE(has_stage("physical"));  // not executed yet
  EXPECT_FALSE(q.trace->unnest_steps.empty());

  // The Figure 1 query is already canonical; a comprehension-valued
  // generator domain forces a Figure 4 composition rule to fire.
  CompiledQuery nested = opt.Compile(ParseOQL(
      "select distinct e.name from e in (select x from x in Employees "
      "where x.age > 26)"));
  ASSERT_NE(nested.trace, nullptr);
  ASSERT_FALSE(nested.trace->normalize_rules.empty());
  for (const RuleFiring& rf : nested.trace->normalize_rules) {
    EXPECT_FALSE(rf.rule.empty());
    EXPECT_GE(rf.count, 1) << rf.rule;
  }
  double sum = 0;
  for (const StageTiming& st : q.trace->stages) sum += st.ms;
  EXPECT_DOUBLE_EQ(q.trace->total_ms, sum);

  // Execute appends the physical-selection stage to the shared trace.
  Value v = opt.Execute(q, db_);
  EXPECT_EQ(v, RunOQLBaseline(db_, oql));
  EXPECT_TRUE(has_stage("physical"));

  std::string printed = PrintCompileTrace(*q.trace);
  EXPECT_NE(printed.find("compile trace"), std::string::npos) << printed;
  EXPECT_NE(printed.find("normalize"), std::string::npos) << printed;
  EXPECT_NE(printed.find("unnest steps:"), std::string::npos) << printed;

  std::string json = CompileTraceToJson(*q.trace);
  EXPECT_NE(json.find("\"stages\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"normalize_rules\""), std::string::npos) << json;

  // Tracing off: no trace allocated.
  Optimizer plain(db_.schema(), {});
  EXPECT_EQ(plain.Compile(ParseOQL(oql)).trace, nullptr);
}

TEST_F(ProfileTest, ExplainAnalyzeRendersTreeAndCounters) {
  ProfiledRun r = RunProfiled(
      db_,
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments");
  std::string out = ExplainAnalyze(r.phys, r.prof);
  EXPECT_NE(out.find("EXPLAIN ANALYZE (mode=serial"), std::string::npos)
      << out;
  EXPECT_NE(out.find("Reduce"), std::string::npos) << out;
  EXPECT_NE(out.find("Departments"), std::string::npos) << out;
  EXPECT_NE(out.find("rows=3"), std::string::npos) << out;
  EXPECT_NE(out.find("build=4"), std::string::npos) << out;
  EXPECT_NE(out.find("groups=2"), std::string::npos) << out;  // dno keys
  EXPECT_NE(out.find("time="), std::string::npos) << out;
  EXPECT_EQ(out.find("est="), std::string::npos) << out;  // no catalog given

  Catalog cat = Catalog::FromDatabase(db_);
  std::string with_est = ExplainAnalyze(r.phys, r.prof, &cat);
  EXPECT_NE(with_est.find("est="), std::string::npos) << with_est;

  // Parallel execution adds worker utilization lines.
  workload::CompanyParams params;
  params.n_employees = 300;
  params.seed = 3;
  Database big = workload::MakeCompanyDatabase(params);
  ProfiledRun par = RunProfiled(
      big, "sum(select e.salary from e in Employees where e.age > 30)", 4, 16);
  if (par.prof.run.mode != "serial") {
    std::string pout = ExplainAnalyze(par.phys, par.prof);
    EXPECT_NE(pout.find("workers:"), std::string::npos) << pout;
    EXPECT_NE(pout.find("mode=spine-reduce"), std::string::npos) << pout;
  }
}

// A parallel run builds its shared hash table once, before any morsel. The
// run record times that prebuild, every morsel starts after it and ends
// within the run, and the HashJoin's open_ns holds the build time, as in
// the serial run, where Open() builds the table. (A build missing from
// open_ns leaves the parallel value near 1/1600 of the serial one.)
TEST_F(ProfileTest, PrebuiltJoinTimeLandsInOpenAndBeforeMorsels) {
  workload::CompanyParams params;
  params.n_employees = 16000;
  params.seed = 11;
  Database db = workload::MakeCompanyDatabase(params);
  const std::string oql =
      "count(select e1 from e1 in Employees, e2 in Employees "
      "where e1.name = e2.name)";
  ProfiledRun serial = RunProfiled(db, oql);
  ProfiledRun par = RunProfiled(db, oql, 4, 2048);
  ASSERT_EQ(par.value, serial.value);
  ASSERT_EQ(par.totals.mode, "spine-reduce");
  std::vector<const PhysOp*> ops;
  Preorder(serial.phys, &ops);
  const int join = FindOpId(ops, PhysKind::kHashJoin);
  ASSERT_GE(join, 0) << PrintPhysicalPlan(serial.phys);

  EXPECT_EQ(serial.totals.prebuild_ns, 0);
  EXPECT_GT(par.totals.prebuild_ns, 0);
  EXPECT_EQ(par.totals.morsels.size(), 8u);
  for (const MorselStats& m : par.totals.morsels) {
    EXPECT_GE(m.start_ns, par.totals.prebuild_ns) << "morsel " << m.index;
    EXPECT_LE(m.start_ns + m.dur_ns, par.totals.wall_ns)
        << "morsel " << m.index;
  }
  const double serial_open = serial.prof.Find(join)->open_ns;
  const double par_open = par.prof.Find(join)->open_ns;
  EXPECT_GT(par_open, serial_open / 10);
  EXPECT_LT(par_open, serial_open * 10);
}

TEST_F(ProfileTest, PhysicalCardinalityEstimates) {
  Catalog cat = Catalog::FromDatabase(db_);
  OptimizerOptions options;
  Optimizer opt(db_.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(
      "select distinct struct(D: d.name, n: count(select e from e in "
      "Employees where e.dno = d.dno)) from d in Departments"));
  PhysPtr phys = PlanPhysical(q.simplified, db_, options.physical);
  std::vector<const PhysOp*> ops;
  Preorder(phys, &ops);
  const int dept = FindOpId(ops, PhysKind::kTableScan, "Departments");
  ASSERT_GE(dept, 0);
  // A bare extent scan estimates exactly the extent cardinality.
  PhysPtr dept_scan = std::make_shared<PhysOp>(*ops[dept]);
  EXPECT_DOUBLE_EQ(EstimatePhysicalCardinality(dept_scan, cat), 3.0);
  // The root Reduce is always a single value.
  EXPECT_DOUBLE_EQ(EstimatePhysicalCardinality(phys, cat), 1.0);
}

}  // namespace
}  // namespace ldb
