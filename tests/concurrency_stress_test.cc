// Concurrency stress tests for every annotated lock in the service stack
// (DESIGN.md, "Locking discipline"): PlanCache, MetricsRegistry,
// ActiveQueryRegistry, QueryLog, the ClassNames interner, and
// QueryService::Execute racing UpdateCatalog. Schedules are seeded (per-thread mt19937, seed = kSeed +
// thread id) so a TSan hit replays. These tests complement the static
// thread-safety analysis: the annotations prove lock discipline at compile
// time; this file makes the TSan job actually interleave the locks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/lambdadb.h"
#include "src/obs/query_log.h"
#include "src/obs/resource.h"
#include "src/service/plan_cache.h"
#include "tests/test_util.h"

namespace ldb {
namespace {

constexpr uint32_t kSeed = 20260808;
constexpr int kThreads = 8;

void RunThreads(int n, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int t = 0; t < n; ++t) threads.emplace_back([&, t] { body(t); });
  for (std::thread& th : threads) th.join();
}

// ----------------------------------------------------------------- PlanCache

std::shared_ptr<const PreparedPlan> FakePlan(const std::string& key) {
  auto p = std::make_shared<PreparedPlan>();
  p->cache_key = key;
  return p;
}

TEST(ConcurrencyStress, PlanCacheHitMissEvictUnderContention) {
  // Capacity far below the key universe so capacity evictions race lookups.
  PlanCache cache(8);
  constexpr int kKeys = 64;
  constexpr int kOpsPerThread = 4000;
  std::atomic<uint64_t> lookups{0};

  RunThreads(kThreads, [&](int t) {
    std::mt19937 rng(kSeed + t);
    std::uniform_int_distribution<int> key_dist(0, kKeys - 1);
    std::uniform_int_distribution<int> op_dist(0, 99);
    for (int i = 0; i < kOpsPerThread; ++i) {
      std::string key = "q";
      key += std::to_string(key_dist(rng));
      key += "\n@stamp";
      int op = op_dist(rng);
      if (op < 70) {
        std::shared_ptr<const PreparedPlan> p = cache.Lookup(key);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (p != nullptr) {
          EXPECT_EQ(p->cache_key, key);
        }
      } else if (op < 95) {
        cache.Insert(key, FakePlan(key));
      } else if (op < 98) {
        cache.Stats();
      } else {
        cache.Clear();
      }
    }
  });

  PlanCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits + s.misses, lookups.load());
  EXPECT_LE(s.entries, s.capacity);
  EXPECT_EQ(s.evictions, s.evictions_capacity + s.evictions_invalidated);
}

TEST(ConcurrencyStress, PlanCacheEvictNotMatchingRacesInserts) {
  PlanCache cache(128);
  std::atomic<bool> stop{false};

  std::thread evictor([&] {
    std::mt19937 rng(kSeed);
    int gen = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      cache.EvictNotMatching("\n@gen" + std::to_string(gen % 2));
      ++gen;
    }
  });
  RunThreads(kThreads, [&](int t) {
    std::mt19937 rng(kSeed + 1 + t);
    std::uniform_int_distribution<int> key_dist(0, 31);
    for (int i = 0; i < 2000; ++i) {
      std::string key = "q";
      key += std::to_string(key_dist(rng));
      key += "\n@gen";
      key += std::to_string(i % 2);
      if (cache.Lookup(key) == nullptr) cache.Insert(key, FakePlan(key));
    }
  });
  stop.store(true);
  evictor.join();

  // Every surviving entry matches one of the two stamps; counters add up.
  PlanCacheStats s = cache.Stats();
  EXPECT_EQ(s.evictions, s.evictions_capacity + s.evictions_invalidated);
}

// Regression (PR 9): SetMetricHooks used to assign the hook struct without
// the cache mutex — racing a concurrent Lookup/Insert that reads the hooks.
// Now it locks; this test makes TSan watch the window.
TEST(ConcurrencyStress, PlanCacheSetMetricHooksRacesTraffic) {
  PlanCache cache(16);
  obs::MetricsRegistry reg;
  PlanCache::MetricHooks hooks;
  hooks.hits = reg.GetCounter("h", "hits");
  hooks.misses = reg.GetCounter("m", "misses");

  std::atomic<bool> stop{false};
  std::thread installer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      cache.SetMetricHooks(hooks);
      cache.SetMetricHooks(PlanCache::MetricHooks{});
    }
  });
  RunThreads(kThreads, [&](int t) {
    std::mt19937 rng(kSeed + t);
    std::uniform_int_distribution<int> key_dist(0, 7);
    for (int i = 0; i < 2000; ++i) {
      std::string key = "k";
      key += std::to_string(key_dist(rng));
      if (cache.Lookup(key) == nullptr) cache.Insert(key, FakePlan(key));
    }
  });
  stop.store(true);
  installer.join();
  PlanCacheStats s = cache.Stats();
  EXPECT_EQ(s.hits + s.misses, uint64_t{kThreads} * 2000);
}

// ----------------------------------------------------------- MetricsRegistry

TEST(ConcurrencyStress, MetricsRegistryRegistrationRacesSnapshots) {
  obs::MetricsRegistry reg;
  constexpr int kOpsPerThread = 2000;

  RunThreads(kThreads, [&](int t) {
    std::mt19937 rng(kSeed + t);
    std::uniform_int_distribution<int> name_dist(0, 15);
    std::uniform_int_distribution<int> op_dist(0, 99);
    for (int i = 0; i < kOpsPerThread; ++i) {
      std::string name = "metric_" + std::to_string(name_dist(rng));
      int op = op_dist(rng);
      if (op < 40) {
        reg.GetCounter(name + "_c", "help")->Inc();
      } else if (op < 70) {
        reg.GetGauge(name + "_g", "help")->Add(1);
      } else if (op < 90) {
        reg.GetHistogram(name + "_h", "help")->Observe(double(i % 100));
      } else {
        (void)reg.Snapshot().samples.size();
      }
    }
  });

  // Registration is idempotent per series: re-registering returns the same
  // instrument, so per-series totals equal the sum of every thread's Incs.
  uint64_t total = 0;
  for (int n = 0; n < 16; ++n) {
    total += reg.GetCounter("metric_" + std::to_string(n) + "_c", "help")
                 ->Value();
  }
  if (obs::MetricsRegistry::Enabled()) {
    EXPECT_GT(total, 0u);
  }
  // Rendering under load stays parseable.
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_FALSE(snap.ToPrometheusText().empty());
}

// ------------------------------------------------------- ActiveQueryRegistry

TEST(ConcurrencyStress, ActiveQueryRegistryRegisterSnapshotUnregister) {
  obs::ActiveQueryRegistry reg;
  constexpr int kOpsPerThread = 1500;

  RunThreads(kThreads, [&](int t) {
    std::mt19937 rng(kSeed + t);
    std::uniform_int_distribution<int> op_dist(0, 9);
    auto ctx = std::make_shared<obs::QueryResourceContext>();
    for (int i = 0; i < kOpsPerThread; ++i) {
      uint64_t id = reg.Register(uint64_t(t), uint64_t(i), ctx, "t:0");
      if (op_dist(rng) < 3) {
        std::vector<obs::ActiveQueryInfo> snap = reg.Snapshot();
        EXPECT_GE(snap.size(), 1u);  // at least our own entry
        // Entries registered while this snapshot waited on the registry
        // lock must still show a non-negative age.
        for (const obs::ActiveQueryInfo& q : snap) {
          EXPECT_GE(q.elapsed_ms, 0.0) << "query " << q.query_id;
        }
        (void)reg.SumInUseBytes();
      }
      reg.SetPhase(id, "executing");
      reg.Unregister(id);
    }
  });

  EXPECT_EQ(reg.Count(), 0u);
  EXPECT_TRUE(reg.Snapshot().empty());
}

// ------------------------------------------------------------------ QueryLog

TEST(ConcurrencyStress, QueryLogAppendRacesTail) {
  obs::QueryLog log(/*capacity=*/64, /*slow_ms=*/1.0);
  constexpr int kOpsPerThread = 2000;

  RunThreads(kThreads, [&](int t) {
    std::mt19937 rng(kSeed + t);
    std::uniform_int_distribution<int> op_dist(0, 9);
    for (int i = 0; i < kOpsPerThread; ++i) {
      obs::QueryLogRecord rec;
      rec.session = uint64_t(t);
      rec.status = "ok";
      rec.exec_ms = double(i % 7);
      log.Append(rec);
      if (op_dist(rng) == 0) {
        std::vector<obs::QueryLogRecord> tail = log.Tail(16);
        EXPECT_LE(tail.size(), 16u);
        for (const obs::QueryLogRecord& r : tail) {
          EXPECT_EQ(r.status, "ok");  // never a half-written record
        }
      }
    }
  });

  EXPECT_EQ(log.appended(), uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(log.dropped(), log.appended() - log.capacity());
  EXPECT_EQ(log.Tail(1000).size(), log.capacity());
}

// ---------------------------------------------------------------- ClassNames

// Threads intern overlapping class names in different orders while reading
// names back without a lock: every thread gets the same id for a name, and
// a published id always reads its whole name.
TEST(ConcurrencyStress, ClassNamesInternRacesLockFreeReads) {
  constexpr int kNames = 64;
  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kNames));
  RunThreads(kThreads, [&](int t) {
    std::vector<int> order(kNames);
    for (int i = 0; i < kNames; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(kSeed + t));
    for (int i : order) {
      const std::string name = "StressClass" + std::to_string(i);
      const std::optional<uint32_t> id = ClassNames::Intern(name);
      ASSERT_TRUE(id.has_value());
      ids[t][i] = *id;
      EXPECT_EQ(ClassNames::Name(*id), name);
      EXPECT_EQ(Value::MakeRef(name, i).AsRef().class_name(), name);
    }
  });
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
}

// -------------------------------------------- Execute vs UpdateCatalog race

// Regression (PR 9): UpdateCatalog used to write options_.optimizer.catalog
// and version_stamp_ with no lock while concurrent Execute calls read both
// mid-compile — documented "maintenance window only". The planning config
// now lives behind config_mu_ and every query plans against a snapshot, so
// catalog swaps are safe against live traffic. This hammers the window and
// checks results stay correct throughout.
TEST(ConcurrencyStress, ExecuteRacesUpdateCatalog) {
  Database db = testing::TinyCompany();
  ServiceOptions so;
  so.max_concurrent = kThreads;
  so.plan_cache_capacity = 8;
  QueryService svc(db, so);

  const std::string query =
      "count(select e.name from e in Employees where e.salary > 0)";
  const Value expected = RunOQL(db, query);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    std::mt19937 rng(kSeed);
    std::uniform_int_distribution<int> card(1, 1000000);
    while (!stop.load(std::memory_order_relaxed)) {
      Catalog cat = Catalog::FromDatabase(db);
      cat.SetExtentCardinality("Employees", double(card(rng)));
      svc.UpdateCatalog(cat);  // moves the version stamp every time
    }
  });

  std::atomic<int> failures{0};
  RunThreads(kThreads, [&](int /*t*/) {
    auto session = svc.OpenSession();
    for (int i = 0; i < 200; ++i) {
      Value v = svc.Execute(*session, query);
      if (!(v == expected)) failures.fetch_add(1);
    }
  });
  stop.store(true);
  swapper.join();

  EXPECT_EQ(failures.load(), 0);
  // Cache stays coherent: totals reconcile after the storm.
  PlanCacheStats s = svc.cache_stats();
  EXPECT_EQ(s.evictions, s.evictions_capacity + s.evictions_invalidated);
  EXPECT_LE(s.entries, s.capacity);
}

// The same storm through prepared handles, one Statement per thread: a
// handle bound under a stamp the swapper has since moved re-resolves on its
// next execution, and its results never go wrong meanwhile.
TEST(ConcurrencyStress, PreparedHandlesRaceUpdateCatalog) {
  Database db = testing::TinyCompany();
  ServiceOptions so;
  so.max_concurrent = kThreads;
  so.plan_cache_capacity = 8;
  QueryService svc(db, so);

  const std::string query =
      "count(select e.name from e in Employees where e.salary > $1)";
  const Value expected = RunOQL(
      db, "count(select e.name from e in Employees where e.salary > 0)");

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    std::mt19937 rng(kSeed);
    std::uniform_int_distribution<int> card(1, 1000000);
    while (!stop.load(std::memory_order_relaxed)) {
      Catalog cat = Catalog::FromDatabase(db);
      cat.SetExtentCardinality("Employees", double(card(rng)));
      svc.UpdateCatalog(cat);
    }
  });

  std::atomic<int> failures{0};
  RunThreads(kThreads, [&](int /*t*/) {
    auto session = svc.OpenSession();
    session->Bind("1", Value::Int(0));
    Statement stmt = QueryService::Prepare(query);
    for (int i = 0; i < 200; ++i) {
      Value v = svc.Execute(*session, stmt);
      if (!(v == expected) || stmt.plan == nullptr) failures.fetch_add(1);
    }
  });
  stop.store(true);
  swapper.join();

  EXPECT_EQ(failures.load(), 0);
  PlanCacheStats s = svc.cache_stats();
  EXPECT_EQ(s.evictions, s.evictions_capacity + s.evictions_invalidated);
  EXPECT_LE(s.entries, s.capacity);
}

// Admission bookkeeping under churn: running() never exceeds the configured
// ceiling and returns to zero when the storm ends.
TEST(ConcurrencyStress, AdmissionCountersStayWithinCeiling) {
  Database db = testing::TinyCompany();
  ServiceOptions so;
  so.max_concurrent = 2;
  so.max_queue = 64;
  QueryService svc(db, so);
  const std::string query = "count(select e.name from e in Employees)";

  std::atomic<bool> stop{false};
  std::atomic<int> over{0};
  std::thread watcher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (svc.running() > so.max_concurrent) over.fetch_add(1);
    }
  });
  RunThreads(kThreads, [&](int /*t*/) {
    auto session = svc.OpenSession();
    for (int i = 0; i < 50; ++i) svc.Execute(*session, query);
  });
  stop.store(true);
  watcher.join();

  EXPECT_EQ(over.load(), 0);
  EXPECT_EQ(svc.running(), 0);
}

}  // namespace
}  // namespace ldb
