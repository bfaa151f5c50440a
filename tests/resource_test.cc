// Per-query resource accounting tests (src/obs/resource.*): tracker
// charge/release balance, engine-level attribution (every reservation the
// executors take is returned, on success and on the abort unwind), runtime
// budget enforcement mid-build, the over_budget query-log status, and the
// live query registry (docs/OBSERVABILITY.md, docs/SERVICE.md).

#include "src/obs/resource.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/core/optimizer.h"
#include "src/core/pretty.h"
#include "src/lambdadb.h"
#include "src/runtime/cancel.h"
#include "src/runtime/exec_pipeline.h"
#include "src/service/query_service.h"
#include "src/workload/oo7.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// A correlated subquery: its outer join and nest run as one GroupJoin that
// pre-aggregates the parts per build date (a reservation of that class).
const char* kNestQuery =
    "select distinct struct(D: b.id, P: (select p.id from p in AtomicParts "
    "where p.build_date = b.build_date)) "
    "from b in BaseAssemblies";

// A nest over an outer unnest stays a HashNest (no outer join to fuse), so
// the group table's reservation and unwind paths keep their coverage.
const char* kHashNestQuery =
    "select distinct struct(C: c.id, P: (select p.id from p in c.parts "
    "where p.x > 0)) from c in CompositeParts";

// GroupJoins on a spine that AtomicParts drives, so the 4-thread runs share
// one prebuilt right side: per-build-date bags of composite ids (aggregate),
// and a count whose two comparisons read both sides (loop, over every part).
// `filter` restricts the left rows.
std::string GroupJoinQuery(bool loop, const std::string& filter) {
  return loop ? "select distinct struct(A: a.id, n: count(select p from p in "
                "AtomicParts where p.x < a.x and p.y > a.y)) from a in "
                "AtomicParts where " + filter
              : "select distinct struct(A: a.id, C: (select c.id from c in "
                "CompositeParts where c.build_date = a.build_date)) from a in "
                "AtomicParts where " + filter;
}

// A quadratic nested-loop self join: reliably long-running, for the live
// registry test.
const char* kSlowQuery =
    "count(select struct(A: a.id, B: b.id) "
    "from a in AtomicParts, b in AtomicParts where a.x < b.y)";

Database MediumOO7() {
  workload::OO7Params p;
  p.n_composite_parts = 100;
  p.parts_per_composite = 20;  // 2000 atomic parts
  return workload::MakeOO7Database(p);
}

// Compiles and executes `oql` against `db` with `resource` armed.
Value RunWithResource(const Database& db, const std::string& oql,
                      obs::QueryResourceContext* resource, int threads = 1,
                      size_t morsel = 2048, QueryProfiler* profiler = nullptr,
                      const CancelToken* cancel = nullptr) {
  OptimizerOptions options;
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(oql));
  PhysPtr phys = PlanPhysical(q.simplified, db, options.physical);
  ExecOptions exec;
  exec.n_threads = threads;
  exec.morsel_size = morsel;
  exec.resource = resource;
  exec.profiler = profiler;
  exec.cancel = cancel;
  return ExecutePipelined(phys, db, exec);
}

// ------------------------------------------------------------- tracker unit

TEST(ResourceContextTest, AppliesDeltasAndTracksPeaks) {
  obs::QueryResourceContext ctx;
  ctx.Apply(3, 1000);
  ctx.Apply(5, 500);
  EXPECT_EQ(ctx.InUseBytes(), 1500u);
  EXPECT_EQ(ctx.PeakBytes(), 1500u);
  EXPECT_EQ(ctx.OpInUseBytes(3), 1000u);
  EXPECT_EQ(ctx.OpPeakBytes(5), 500u);
  EXPECT_EQ(ctx.DominantOp(), 3);

  ctx.Apply(3, -1000);
  ctx.Apply(5, -500);
  EXPECT_EQ(ctx.InUseBytes(), 0u);
  EXPECT_EQ(ctx.PeakBytes(), 1500u);  // peaks never come down
  EXPECT_EQ(ctx.OpPeakBytes(3), 1000u);
  EXPECT_FALSE(ctx.OverBudget());
}

TEST(MemoryTrackerTest, BatchedChargesBalanceToZero) {
  obs::QueryResourceContext ctx;
  obs::MemoryTracker t;
  t.Arm(&ctx);
  if (!t.armed()) GTEST_SKIP() << "metrics compiled out";

  for (int i = 0; i < 1000; ++i) t.Charge(2, 100);
  t.Flush();
  EXPECT_EQ(ctx.InUseBytes(), 100000u);
  for (int i = 0; i < 1000; ++i) t.Release(2, 100);
  t.FlushNoThrow();
  EXPECT_EQ(ctx.InUseBytes(), 0u);
  EXPECT_EQ(ctx.PeakBytes(), 100000u);
  EXPECT_EQ(ctx.DominantOp(), 2);
}

TEST(MemoryTrackerTest, ParallelTrackersBalanceToZero) {
  obs::QueryResourceContext ctx;
  {
    obs::MemoryTracker probe;
    probe.Arm(&ctx);
    if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  }
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&ctx] {
      obs::MemoryTracker t;
      t.Arm(&ctx);
      for (int i = 0; i < 10000; ++i) t.Charge(1, 64);
      for (int i = 0; i < 10000; ++i) t.Release(1, 64);
      // The destructor flushes whatever is still pending.
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(ctx.InUseBytes(), 0u);
  EXPECT_GT(ctx.PeakBytes(), 0u);
}

TEST(MemoryTrackerTest, ChargeOverBudgetThrowsPromptly) {
  obs::QueryResourceContext ctx(/*budget_bytes=*/1000);
  obs::MemoryTracker t;
  t.Arm(&ctx);
  if (!t.armed()) GTEST_SKIP() << "metrics compiled out";

  // The budget shrinks the flush threshold to budget/4+1 = 251 bytes, so
  // the violation surfaces within one small charge, not after 32 KiB.
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) t.Charge(0, 100);
      },
      obs::QueryMemoryExceeded);
  EXPECT_TRUE(ctx.OverBudget());
  EXPECT_LT(ctx.InUseBytes(), 2000u);  // caught early, not at 10000
}

// --------------------------------------------------------- engine attribution

TEST(ResourceEngineTest, SlotEngineReleasesEverythingOnSuccess) {
  Database db = MediumOO7();
  obs::QueryResourceContext ctx;
  Value r = RunWithResource(db, kNestQuery, &ctx);
  EXPECT_EQ(r, RunOQLBaseline(db, kNestQuery));
  obs::MemoryTracker probe;
  probe.Arm(&ctx);
  if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  EXPECT_GT(ctx.PeakBytes(), 0u);
  EXPECT_EQ(ctx.InUseBytes(), 0u) << "leaked reservations";
  EXPECT_GE(ctx.DominantOp(), 0);
}

TEST(ResourceEngineTest, ParallelExecutionReleasesEverything) {
  Database db = MediumOO7();
  obs::QueryResourceContext ctx;
  Value serial = RunWithResource(db, kNestQuery, nullptr);
  Value parallel =
      RunWithResource(db, kNestQuery, &ctx, /*threads=*/4, /*morsel=*/64);
  EXPECT_EQ(parallel, serial);
  obs::MemoryTracker probe;
  probe.Arm(&ctx);
  if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  EXPECT_GT(ctx.PeakBytes(), 0u);
  EXPECT_EQ(ctx.InUseBytes(), 0u) << "leaked reservations";
}

TEST(ResourceEngineTest, ProfilerAttributesBytesToOperators) {
  Database db = MediumOO7();
  obs::QueryResourceContext ctx;
  QueryProfiler prof;
  RunWithResource(db, kNestQuery, &ctx, 1, 2048, &prof);
  uint64_t total = 0;
  for (const OperatorStats* s : prof.Operators()) total += s->mem_bytes;
  EXPECT_GT(total, 0u);
}

// ------------------------------------------------------- budget enforcement

TEST(ResourceEngineTest, BudgetAbortsMidBuildWithoutLeak) {
  Database db = MediumOO7();
  {
    obs::MemoryTracker probe;
    obs::QueryResourceContext unlimited;
    probe.Arm(&unlimited);
    if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  }
  for (const char* q : {kNestQuery, kHashNestQuery}) {
    obs::QueryResourceContext ctx(/*budget_bytes=*/4096);
    EXPECT_THROW(RunWithResource(db, q, &ctx), obs::QueryMemoryExceeded) << q;
    EXPECT_TRUE(ctx.OverBudget()) << q;
    EXPECT_EQ(ctx.InUseBytes(), 0u) << "abort unwind leaked reservations: "
                                     << q;
  }
}

TEST(ResourceEngineTest, ParallelBudgetAbortDoesNotLeak) {
  Database db = MediumOO7();
  {
    obs::MemoryTracker probe;
    obs::QueryResourceContext unlimited;
    probe.Arm(&unlimited);
    if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  }
  for (const char* q : {kNestQuery, kHashNestQuery}) {
    obs::QueryResourceContext ctx(/*budget_bytes=*/4096);
    EXPECT_THROW(RunWithResource(db, q, &ctx, 4, 64), obs::QueryMemoryExceeded)
        << q;
    EXPECT_TRUE(ctx.OverBudget()) << q;
    EXPECT_EQ(ctx.InUseBytes(), 0u) << "parallel abort leaked reservations: "
                                     << q;
  }
}

TEST(ResourceEngineTest, GroupJoinSummaryChargesReturnToZero) {
  Database db = MediumOO7();
  {
    obs::MemoryTracker probe;
    obs::QueryResourceContext unlimited;
    probe.Arm(&unlimited);
    if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  }
  const int kGroupJoin = static_cast<int>(PhysKind::kGroupJoin);
  for (bool loop : {false, true}) {
    const std::string small = GroupJoinQuery(loop, "a.id < 100");
    const std::string full = GroupJoinQuery(loop, "a.id >= 0");
    const Value want = RunOQLBaseline(db, small);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(loop ? "loop" : "aggregate") +
                   " threads=" + std::to_string(threads));
      // Success: the summary was sized and charged, and is returned.
      obs::QueryResourceContext ok;
      QueryProfiler prof;
      EXPECT_EQ(RunWithResource(db, small, &ok, threads, 64, &prof), want);
      uint64_t summary_bytes = 0;
      for (const OperatorStats* s : prof.Operators()) {
        if (s->kind == PhysKind::kGroupJoin) summary_bytes += s->mem_bytes;
      }
      EXPECT_GT(summary_bytes, 0u);
      EXPECT_EQ(ok.InUseBytes(), 0u) << "leaked after success";

      // Cancelled mid-query: a deadline that expires while rows flow.
      CancelToken cancel;
      cancel.SetDeadlineAfterMs(loop ? 2 : 0);
      obs::QueryResourceContext cancelled;
      EXPECT_THROW(RunWithResource(db, full, &cancelled, threads, 64, nullptr,
                                   &cancel),
                   QueryCancelled);
      EXPECT_EQ(cancelled.InUseBytes(), 0u) << "leaked after cancel";

      // Over budget while the summary is built.
      obs::QueryResourceContext tight(/*budget_bytes=*/2048);
      EXPECT_THROW(RunWithResource(db, full, &tight, threads, 64),
                   obs::QueryMemoryExceeded);
      EXPECT_TRUE(tight.OverBudget());
      EXPECT_GT(tight.OpPeakBytes(kGroupJoin), 0u);
      EXPECT_EQ(tight.InUseBytes(), 0u) << "leaked after a budget abort";
    }
  }
}

// ------------------------------------------------------------ service level

TEST(ResourceServiceTest, OverBudgetQueryLogsStatus) {
  Database db = MediumOO7();
  QueryService svc(db);
  SessionOptions so;
  so.memory_budget_bytes = 1024;  // the result alone estimates 1 136 bytes
  auto session = svc.OpenSession(so);
  // Mid-build enforcement catches this when tracking is compiled in; the
  // result-size check catches it when it is not — either way the query dies
  // with QueryMemoryExceeded and the log says over_budget.
  EXPECT_THROW(svc.Execute(*session, kNestQuery), obs::QueryMemoryExceeded);

  std::vector<obs::QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].status, "over_budget");
  EXPECT_FALSE(tail[0].error.empty());

  // The session recovers: lift the budget and the same query runs.
  session->options().memory_budget_bytes = 0;
  EXPECT_EQ(svc.Execute(*session, kNestQuery), RunOQLBaseline(db, kNestQuery));
  tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].status, "ok");
}

TEST(ResourceServiceTest, QueryLogRecordsMemoryPeakAndDominantOp) {
  Database db = MediumOO7();
  {
    obs::MemoryTracker probe;
    obs::QueryResourceContext unlimited;
    probe.Arm(&unlimited);
    if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  }
  QueryService svc(db);
  auto session = svc.OpenSession();
  svc.Execute(*session, kNestQuery);
  std::vector<obs::QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_GT(tail[0].mem_peak_bytes, 0u);
  EXPECT_FALSE(tail[0].mem_op.empty());
  EXPECT_NE(tail[0].ToString().find("mem_peak="), std::string::npos);
}

// ------------------------------------------------------------- live registry

TEST(ActiveQueryRegistryTest, RegisterSnapshotUnregister) {
  obs::ActiveQueryRegistry reg;
  auto ctx = std::make_shared<obs::QueryResourceContext>();
  ctx->Apply(2, 4096);
  ctx->AddRows(17);

  uint64_t id = reg.Register(/*session=*/7, /*query_hash=*/0xabcd, ctx);
  EXPECT_EQ(reg.Count(), 1u);
  reg.SetPhase(id, "executing");

  std::vector<obs::ActiveQueryInfo> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].query_id, id);
  EXPECT_EQ(snap[0].session, 7u);
  EXPECT_EQ(snap[0].query_hash, 0xabcdu);
  EXPECT_EQ(snap[0].phase, "executing");
  EXPECT_EQ(snap[0].rows, 17u);
  EXPECT_EQ(snap[0].mem_in_use_bytes, 4096u);
  EXPECT_EQ(reg.SumInUseBytes(), 4096u);

  reg.Unregister(id);
  EXPECT_EQ(reg.Count(), 0u);
  EXPECT_TRUE(reg.Snapshot().empty());
}

TEST(ResourceServiceTest, ActiveQueriesShowsInFlightQuery) {
  Database db = MediumOO7();
  QueryService svc(db);

  std::thread runner([&] {
    auto session = svc.OpenSession();
    svc.Execute(*session, kSlowQuery);
  });

  // The query registers before admission, so it becomes visible as soon as
  // Run() is entered; the quadratic join keeps it in flight long enough to
  // observe. Spin until the snapshot is non-empty.
  std::vector<obs::ActiveQueryInfo> seen;
  for (int spin = 0; spin < 10000000 && seen.empty(); ++spin) {
    seen = svc.ActiveQueries();
    if (seen.empty()) std::this_thread::yield();
  }
  runner.join();

  ASSERT_EQ(seen.size(), 1u) << "in-flight query never became visible";
  EXPECT_TRUE(seen[0].phase == "queued" || seen[0].phase == "compiling" ||
              seen[0].phase == "executing")
      << seen[0].phase;
  EXPECT_GE(seen[0].elapsed_ms, 0.0);
  EXPECT_TRUE(svc.ActiveQueries().empty()) << "query left in the registry";
}

// ------------------------------------------------------------ explain analyze

TEST(ResourceEngineTest, ExplainAnalyzeShowsMemColumn) {
  Database db = MediumOO7();
  {
    obs::MemoryTracker probe;
    obs::QueryResourceContext unlimited;
    probe.Arm(&unlimited);
    if (!probe.armed()) GTEST_SKIP() << "metrics compiled out";
  }
  OptimizerOptions options;
  Optimizer opt(db.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(kNestQuery));
  PhysPtr phys = PlanPhysical(q.simplified, db, options.physical);
  SlotPlan plan = CompileSlotPlan(phys, db);
  QueryProfiler prof;
  obs::QueryResourceContext ctx;
  ExecOptions exec;
  exec.profiler = &prof;
  exec.resource = &ctx;
  ExecuteSlotPlan(plan, db, exec);
  std::string out = ExplainAnalyze(phys, prof);
  EXPECT_NE(out.find("mem="), std::string::npos) << out;
}

}  // namespace
}  // namespace ldb
