// Query service tests: parameterized prepared statements and their bound
// plans, the plan cache (hits, eviction, key soundness, catalog updates),
// cooperative cancellation serial and morsel-parallel, admission control,
// memory budgets, and index rebuild on load (docs/SERVICE.md).

#include "src/service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "src/lambdadb.h"
#include "src/workload/oo7.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

// A hash-join query: equality predicate across the join, so the build side
// (all of AtomicParts) goes through the hash-build loop the cancellation
// tests target.
const char* kHashJoinQuery =
    "select distinct struct(A: a.id, B: b.id) "
    "from a in AtomicParts, b in AtomicParts "
    "where a.build_date = b.build_date and a.id < b.id";

// A nesting query: the correlated subquery unnests to an outer join under a
// nest, which run as one GroupJoin (its summary build is the loop aborted).
const char* kNestQuery =
    "select distinct struct(D: b.id, P: (select p.id from p in AtomicParts "
    "where p.build_date = b.build_date)) "
    "from b in BaseAssemblies";

// A nest over an outer unnest stays a HashNest, exercising the nest drain
// loop.
const char* kHashNestQuery =
    "select distinct struct(C: c.id, P: (select p.id from p in c.parts "
    "where p.x > 0)) from c in CompositeParts";

// A nested-loop self join (no equality conjunct): quadratic in AtomicParts,
// so it reliably outlives any cancel/deadline the tests throw at it.
const char* kSlowQuery =
    "count(select struct(A: a.id, B: b.id) "
    "from a in AtomicParts, b in AtomicParts where a.x < b.y)";

Database LargeOO7() {
  workload::OO7Params p;
  p.n_composite_parts = 250;
  p.parts_per_composite = 20;  // 5000 atomic parts
  return workload::MakeOO7Database(p);
}

class ServiceTest : public ::testing::Test {
 protected:
  Database db_ = workload::MakeOO7Database({});
};

// ---------------------------------------------------------------- parameters

TEST_F(ServiceTest, PositionalParameterBindsAndRebinds) {
  QueryService svc(db_);
  Statement by_id = QueryService::Prepare(
      "select distinct p.x from p in AtomicParts where p.id = $1");
  auto session = svc.OpenSession();

  session->Bind("1", Value::Int(7));
  Value r7 = svc.Execute(*session, by_id);
  EXPECT_EQ(r7, RunOQL(db_,
                       "select distinct p.x from p in AtomicParts "
                       "where p.id = 7"));

  session->Bind("1", Value::Int(13));
  Value r13 = svc.Execute(*session, by_id);
  EXPECT_EQ(r13, RunOQL(db_,
                        "select distinct p.x from p in AtomicParts "
                        "where p.id = 13"));
  EXPECT_NE(r7, r13);
}

TEST_F(ServiceTest, NamedParameter) {
  QueryService svc(db_);
  auto session = svc.OpenSession();
  session->Bind("cutoff", Value::Int(1500));
  Value r = svc.Execute(*session,
                        "count(select p from p in AtomicParts "
                        "where p.build_date < $cutoff)");
  EXPECT_EQ(r, RunOQL(db_,
                      "count(select p from p in AtomicParts "
                      "where p.build_date < 1500)"));
}

TEST_F(ServiceTest, UnboundParameterIsEvalError) {
  QueryService svc(db_);
  auto session = svc.OpenSession();
  EXPECT_THROW(
      svc.Execute(*session,
                  "select p.x from p in AtomicParts where p.id = $1"),
      EvalError);
}

// ---------------------------------------------------------------- plan cache

TEST_F(ServiceTest, SecondExecutionHitsCacheWithIdenticalResult) {
  QueryService svc(db_);
  auto session = svc.OpenSession();

  QueryStats s1, s2;
  QueryProfiler p1, p2;
  Value r1 = svc.Execute(*session, kHashJoinQuery, &s1, &p1);
  Value r2 = svc.Execute(*session, kHashJoinQuery, &s2, &p2);

  EXPECT_FALSE(s1.plan_cached);
  EXPECT_TRUE(s2.plan_cached);
  EXPECT_GE(s2.cache.hits, 1u);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, RunOQL(db_, kHashJoinQuery));

  // The cache outcome reaches the profile JSON.
  EXPECT_EQ(p1.plan_cached, 0u);
  EXPECT_EQ(p2.plan_cached, 1u);
  std::string json = ProfileToJson(p2);
  EXPECT_NE(json.find("\"plan_cached\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache_hits\": "), std::string::npos) << json;
}

TEST_F(ServiceTest, PreparedStatementSecondExecutionHitsCache) {
  QueryService svc(db_);
  Statement q = QueryService::Prepare(kNestQuery);
  EXPECT_EQ(q.plan, nullptr);  // unbound until its first execution
  EXPECT_THROW(QueryService::Prepare("select from where"), ParseError);
  auto session = svc.OpenSession();

  QueryStats s1, s2;
  Value r1 = svc.Execute(*session, q, &s1);
  ASSERT_NE(q.plan, nullptr);
  Value r2 = svc.Execute(*session, q, &s2);
  EXPECT_FALSE(s1.plan_cached);
  EXPECT_TRUE(s2.plan_cached);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, RunOQL(db_, kNestQuery));

  // An ad-hoc text with the same normal form finds the handle's plan.
  QueryStats s3;
  svc.Execute(*session, kNestQuery, &s3);
  EXPECT_TRUE(s3.plan_cached);
}

// ------------------------------------------------------------- plan handles

TEST_F(ServiceTest, BoundHandleRepeatDoesNoCacheLookup) {
  QueryService svc(db_);
  auto session = svc.OpenSession();
  Statement q = QueryService::Prepare(kHashJoinQuery);
  svc.Execute(*session, q);  // binds: one lookup (a miss) and a compile
  const PlanCacheStats before = svc.cache_stats();
  EXPECT_EQ(before.hits + before.misses, 1u);
  const auto bound = q.plan;

  QueryStats s;
  QueryProfiler prof;
  Value r = svc.Execute(*session, q, &s, &prof);
  const PlanCacheStats after = svc.cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_TRUE(s.plan_cached);
  EXPECT_EQ(prof.plan_cached, 1u);
  EXPECT_EQ(q.plan, bound);  // still the same plan object
  EXPECT_EQ(r, RunOQL(db_, kHashJoinQuery));

  // The handle keeps its plan alive even after the cache drops it.
  svc.ClearCache();
  QueryStats s2;
  EXPECT_EQ(svc.Execute(*session, q, &s2), r);
  EXPECT_TRUE(s2.plan_cached);
  EXPECT_EQ(svc.cache_stats().misses, before.misses);
}

TEST_F(ServiceTest, BoundHandleReresolvesOnceAfterUpdateCatalog) {
  QueryService svc(db_);
  auto session = svc.OpenSession();
  Statement q = QueryService::Prepare(
      "select distinct p.x from p in AtomicParts where p.id = $1");
  session->Bind("1", Value::Int(7));
  const Value expected = RunOQL(
      db_, "select distinct p.x from p in AtomicParts where p.id = 7");
  EXPECT_EQ(svc.Execute(*session, q), expected);
  const auto old_plan = q.plan;

  Catalog cat = Catalog::FromDatabase(db_);
  cat.SetExtentCardinality("AtomicParts", 12345);
  svc.UpdateCatalog(cat);
  const PlanCacheStats before = svc.cache_stats();

  QueryStats s1, s2;
  EXPECT_EQ(svc.Execute(*session, q, &s1), expected);
  EXPECT_FALSE(s1.plan_cached);  // re-resolved: recompiled under the new stamp
  EXPECT_NE(q.plan, old_plan);
  EXPECT_NE(q.plan->stamp, old_plan->stamp);
  EXPECT_EQ(svc.Execute(*session, q, &s2), expected);
  EXPECT_TRUE(s2.plan_cached);
  const PlanCacheStats after = svc.cache_stats();
  EXPECT_EQ(after.misses, before.misses + 1);  // exactly one re-resolve
  EXPECT_EQ(after.hits, before.hits);
}

// Statistics for the three extents the join below reads.
Catalog CatalogOf(double employees, double departments, double managers) {
  Catalog cat;
  cat.SetExtentCardinality("Employees", employees);
  cat.SetExtentCardinality("Departments", departments);
  cat.SetExtentCardinality("Managers", managers);
  return cat;
}

TEST(ServiceCatalogTest, UpdateCatalogReachesCompiledPlans) {
  const Database db = testing::TinyCompany();
  const char* q =
      "select distinct e.name from e in Employees, d in Departments, "
      "m in Managers where e.dno = d.dno and e.manager = m";
  // Catalog A makes Employees the big extent and B the small one, so the
  // cost-based join order differs between them.
  ServiceOptions so;
  so.optimizer.reorder_joins = true;
  so.optimizer.catalog = CatalogOf(1000, 10, 5);
  so.slow_query_ms = 1e-9;  // every query logs its plan text
  QueryService svc(db, so);

  // What a direct compile produces under a given catalog.
  auto direct_plan = [&](const Catalog& cat) {
    OptimizerOptions oo = so.optimizer;
    oo.catalog = cat;
    CompiledQuery cq = Optimizer(db.schema(), oo).Compile(ParseOQL(q));
    return PrintPhysicalPlan(PlanPhysical(cq.simplified, db, oo.physical));
  };
  const Catalog b = CatalogOf(1, 100000, 100000);
  const std::string plan_a = direct_plan(so.optimizer.catalog);
  const std::string plan_b = direct_plan(b);
  ASSERT_NE(plan_a, plan_b) << "the catalogs must lead to different plans";

  auto session = svc.OpenSession();
  auto logged_plan = [&] {
    std::vector<obs::QueryLogRecord> tail = svc.query_log().Tail(1);
    return tail.empty() ? std::string() : tail.back().plan_text;
  };
  const Value expected = RunOQL(db, q);
  Statement handle = QueryService::Prepare(q);
  EXPECT_EQ(svc.Execute(*session, handle), expected);
  EXPECT_EQ(logged_plan(), plan_a);

  svc.UpdateCatalog(b);
  EXPECT_EQ(svc.Execute(*session, q), expected);  // ad-hoc: compiles under B
  EXPECT_EQ(logged_plan(), plan_b);
  EXPECT_EQ(svc.Execute(*session, handle), expected);  // handle re-resolves
  EXPECT_EQ(logged_plan(), plan_b);
}

TEST_F(ServiceTest, OrderDirectionIsPartOfTheCacheKey) {
  QueryService svc(db_);
  auto session = svc.OpenSession();

  QueryStats s_asc, s_desc;
  Value asc = svc.Execute(
      *session, "select b.id from b in BaseAssemblies order by b.id", &s_asc);
  Value desc = svc.Execute(
      *session, "select b.id from b in BaseAssemblies order by b.id desc",
      &s_desc);

  // Same wrapped comprehension, different direction: must NOT share a plan.
  EXPECT_FALSE(s_asc.plan_cached);
  EXPECT_FALSE(s_desc.plan_cached);
  Elems up = asc.AsElems();
  Elems down = desc.AsElems();
  ASSERT_EQ(up.size(), down.size());
  for (size_t i = 0; i < up.size(); ++i) {
    EXPECT_EQ(up[i], down[down.size() - 1 - i]);
  }
}

TEST_F(ServiceTest, LruEvictionAndClear) {
  ServiceOptions opts;
  opts.plan_cache_capacity = 2;
  QueryService svc(db_, opts);
  auto session = svc.OpenSession();

  svc.Execute(*session, "count(select p from p in AtomicParts)");
  svc.Execute(*session, "count(select b from b in BaseAssemblies)");
  svc.Execute(*session, "count(select c from c in CompositeParts)");
  PlanCacheStats cs = svc.cache_stats();
  EXPECT_EQ(cs.entries, 2u);
  EXPECT_GE(cs.evictions, 1u);

  svc.ClearCache();
  cs = svc.cache_stats();
  EXPECT_EQ(cs.entries, 0u);
  EXPECT_GE(cs.misses, 3u);  // counters are lifetime totals
}

// -------------------------------------------------------------- cancellation

TEST_F(ServiceTest, DeadlineAbortsHashBuildSerialAndParallel) {
  Database big = LargeOO7();
  QueryService svc(big);
  for (int threads : {1, 2, 4}) {
    SessionOptions so;
    so.deadline_ms = 1;
    so.n_threads = threads;
    auto session = svc.OpenSession(so);
    EXPECT_THROW(svc.Execute(*session, kHashJoinQuery), QueryCancelled)
        << "threads=" << threads;

    // Clean abort: the session (and service) stay usable — the deadline is
    // re-armed per query, workers are joined, no partial state leaks.
    session->options().deadline_ms = 0;
    Value ok = svc.Execute(*session,
                           "count(select b from b in BaseAssemblies)");
    EXPECT_EQ(ok.AsInt(), 10);
  }
}

TEST_F(ServiceTest, DeadlineAbortsNestSerialAndParallel) {
  Database big = LargeOO7();
  QueryService svc(big);
  for (const char* q : {kNestQuery, kHashNestQuery}) {
    for (int threads : {1, 2, 4}) {
      SessionOptions so;
      so.deadline_ms = 1;
      so.n_threads = threads;
      auto session = svc.OpenSession(so);
      try {
        svc.Execute(*session, q);
        FAIL() << "expected QueryCancelled at threads=" << threads << ": "
               << q;
      } catch (const QueryCancelled& e) {
        EXPECT_NE(std::string(e.what()).find("deadline exceeded"),
                  std::string::npos);
      }
      // Full (undeadlined) execution still produces the correct result.
      session->options().deadline_ms = 0;
      EXPECT_EQ(svc.Execute(*session, q), RunOQL(big, q));
    }
  }
}

TEST_F(ServiceTest, ExplicitCancelFromAnotherThread) {
  Database big = LargeOO7();
  QueryService svc(big);
  for (int threads : {1, 2, 4}) {
    SessionOptions so;
    so.n_threads = threads;
    auto session = svc.OpenSession(so);
    std::atomic<bool> cancelled{false};
    std::string error;
    std::thread runner([&] {
      try {
        svc.Execute(*session, kSlowQuery);  // quadratic; cannot finish first
      } catch (const QueryCancelled& e) {
        cancelled = true;
        error = e.what();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    session->Cancel();
    runner.join();
    EXPECT_TRUE(cancelled) << "threads=" << threads;
    EXPECT_NE(error.find("cancelled by caller"), std::string::npos) << error;
    EXPECT_EQ(svc.running(), 0);
  }
}

// ----------------------------------------------------------------- admission

TEST_F(ServiceTest, OverAdmissionIsRejectedThenSlotFrees) {
  Database big = LargeOO7();
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 0;
  QueryService svc(big, opts);

  auto holder = svc.OpenSession();
  std::thread runner([&] {
    try {
      svc.Execute(*holder, kSlowQuery);
    } catch (const QueryCancelled&) {
    }
  });
  while (svc.running() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto other = svc.OpenSession();
  EXPECT_THROW(
      svc.Execute(*other, "count(select b from b in BaseAssemblies)"),
      AdmissionError);

  holder->Cancel();
  runner.join();
  EXPECT_EQ(svc.running(), 0);
  // The slot is free again.
  EXPECT_EQ(
      svc.Execute(*other, "count(select b from b in BaseAssemblies)").AsInt(),
      10);
}

TEST_F(ServiceTest, QueuedQueryRunsOnceSlotFrees) {
  Database big = LargeOO7();
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 2;
  QueryService svc(big, opts);

  auto holder = svc.OpenSession();
  std::thread runner([&] {
    try {
      svc.Execute(*holder, kSlowQuery);
    } catch (const QueryCancelled&) {
    }
  });
  while (svc.running() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto waiter = svc.OpenSession();
  std::atomic<bool> done{false};
  Value result;
  std::thread queued([&] {
    result = svc.Execute(*waiter, "count(select b from b in BaseAssemblies)");
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done);  // still waiting behind the held slot

  holder->Cancel();
  runner.join();
  queued.join();
  EXPECT_TRUE(done);
  EXPECT_EQ(result.AsInt(), 10);
}

TEST_F(ServiceTest, DeadlineExpiresWhileQueued) {
  Database big = LargeOO7();
  ServiceOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 2;
  QueryService svc(big, opts);

  auto holder = svc.OpenSession();
  std::thread runner([&] {
    try {
      svc.Execute(*holder, kSlowQuery);
    } catch (const QueryCancelled&) {
    }
  });
  while (svc.running() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  SessionOptions so;
  so.deadline_ms = 30;  // expires in the admission queue
  auto waiter = svc.OpenSession(so);
  EXPECT_THROW(
      svc.Execute(*waiter, "count(select b from b in BaseAssemblies)"),
      QueryCancelled);

  holder->Cancel();
  runner.join();
}

// ------------------------------------------------------------ memory budget

TEST_F(ServiceTest, MemoryBudgetRejectsOversizedResult) {
  QueryService svc(db_);
  SessionOptions so;
  so.memory_budget_bytes = 64;  // far below 1000 atomic parts
  auto session = svc.OpenSession(so);
  EXPECT_THROW(svc.Execute(*session, "select p.id from p in AtomicParts"),
               EvalError);

  session->options().memory_budget_bytes = 0;
  EXPECT_EQ(svc.Execute(*session, "count(select p from p in AtomicParts)")
                .AsInt(),
            1000);
}

// -------------------------------------------------- index rebuild on load

TEST_F(ServiceTest, LoadWithIndexesRestoresAccessPaths) {
  Database db = testing::TinyCompany();
  db.BuildIndex("Employees", "dno");

  std::stringstream dump;
  DumpDatabase(db, dump);
  Database loaded = QueryService::LoadWithIndexes(dump);

  // Plain LoadDatabase leaves the declaration pending; the service factory
  // rebuilds it.
  EXPECT_TRUE(loaded.HasIndex("Employees", "dno"));

  // The physical planner picks the index-backed access path again ...
  Optimizer opt(loaded.schema());
  CompiledQuery q = opt.Compile(
      ParseOQL("select distinct e.name from e in Employees where e.dno = 1"));
  std::string explained = PrintPhysicalPlan(PlanPhysical(q.simplified, loaded));
  EXPECT_NE(explained.find("IndexScan[e <- Employees.dno = 1]"),
            std::string::npos)
      << explained;

  // ... and queries through the service agree with the original database.
  QueryService svc(loaded);
  auto session = svc.OpenSession();
  EXPECT_EQ(svc.Execute(*session,
                        "select distinct e.name from e in Employees "
                        "where e.dno = 1"),
            Value::Set({Value::Str("Cal"), Value::Str("Dee")}));
}

// ------------------------------------------------------ compile on a miss

TEST_F(ServiceTest, MissNormalizesOnceForKeyAndCompile) {
  // The cache key is the printed normal form; Compile reuses that term
  // instead of normalizing the query a second time.
  QueryService svc(db_);
  auto session = svc.OpenSession();
  Statement handle = QueryService::Prepare(kNestQuery);
  QueryStats stats;
  Value r = svc.Execute(*session, handle, &stats);
  EXPECT_FALSE(stats.plan_cached);
  EXPECT_EQ(r, RunOQLBaseline(db_, kNestQuery));
  ASSERT_NE(handle.plan, nullptr);
  const CompiledQuery& compiled = handle.plan->compiled;
  ASSERT_NE(compiled.normalized, nullptr);
  EXPECT_EQ(handle.plan->cache_key.rfind(
                PrintExpr(compiled.normalized) + "\n@", 0),
            0u)
      << handle.plan->cache_key;
  if (!compiled.trace) GTEST_SKIP() << "compile traces compiled out";
  ASSERT_FALSE(compiled.trace->stages.empty());
  for (const StageTiming& st : compiled.trace->stages) {
    EXPECT_NE(st.stage, "normalize") << "normalized twice on one miss";
  }
  EXPECT_TRUE(compiled.trace->normalize_rules.empty());
}

// ------------------------------------------- non-comprehension top levels

TEST_F(ServiceTest, NonComprehensionTopLevelRunsAsOneVerifiedSlotPlan) {
  ServiceOptions so;
  so.optimizer.verify_plans = true;
  QueryService svc(db_, so);
  auto session = svc.OpenSession();
  // A record of aggregates is not comprehension-rooted: it unnests as
  // first{ struct(...) | }, is verified, and is cached like any other plan.
  const char* q =
      "struct(N: count(select p from p in AtomicParts), "
      "B: count(select b from b in BaseAssemblies))";
  Statement handle = QueryService::Prepare(q);
  QueryStats s1, s2;
  Value r1 = svc.Execute(*session, handle, &s1);
  EXPECT_FALSE(s1.plan_cached);
  std::vector<obs::QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].verify, "ok");
  ASSERT_NE(handle.plan, nullptr);
  ASSERT_NE(handle.plan->slots.root, nullptr);
  EXPECT_EQ(handle.plan->slots.root->kind, PhysKind::kReduce);
  EXPECT_EQ(handle.plan->slots.root->monoid, MonoidKind::kFirst);

  // The bound handle runs its plan again: nothing compiles, nothing verifies.
  Value r2 = svc.Execute(*session, handle, &s2);
  EXPECT_TRUE(s2.plan_cached);
  EXPECT_EQ(s2.cache.misses, s1.cache.misses);
  tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(tail[0].plan_cached);
  EXPECT_EQ(tail[0].verify, "");
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, RunOQLBaseline(db_, q));
}

}  // namespace
}  // namespace ldb
