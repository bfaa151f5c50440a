// Observability tests (docs/OBSERVABILITY.md): counter exactness under
// concurrency, histogram bucket boundaries and quantiles, Prometheus/JSON
// snapshot round-trips, the query-log ring (wraparound, slow capture at
// exactly the threshold), plan-cache eviction reasons, the trace exporter,
// and the service-level wiring — including the status a cancelled query
// logs and the per-worker profiler totals it keeps exactly once.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/lambdadb.h"
#include "src/obs/query_log.h"
#include "src/obs/trace_export.h"
#include "src/workload/company.h"
#include "src/workload/oo7.h"

namespace ldb {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::QueryLog;
using obs::QueryLogRecord;

// Most assertions count events, which requires the instruments to be
// compiled in; with -DLDB_METRICS=OFF they become no-ops by design.
#define SKIP_WITHOUT_METRICS()                                   \
  if (!MetricsRegistry::Enabled()) {                             \
    GTEST_SKIP() << "built with -DLDB_METRICS=OFF";              \
  }

// ----------------------------------------------------------------- counters

TEST(CounterTest, SerialIncrementsAreExact) {
  SKIP_WITHOUT_METRICS();
  Counter c;
  for (int i = 0; i < 1000; ++i) c.Inc();
  c.Inc(500);
  EXPECT_EQ(c.Value(), 1500u);
}

// The sharded counter must not lose increments under contention: the total
// over N threads x M increments is exactly N*M, same as the serial result.
TEST(CounterTest, ConcurrentIncrementsMatchSerialTotal) {
  SKIP_WITHOUT_METRICS();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50000;

  Counter serial;
  for (int i = 0; i < kThreads * kIncrements; ++i) serial.Inc();

  Counter parallel;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&parallel] {
      for (int i = 0; i < kIncrements; ++i) parallel.Inc();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(parallel.Value(), serial.Value());
  EXPECT_EQ(parallel.Value(), static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(GaugeTest, SetAddAndPeak) {
  SKIP_WITHOUT_METRICS();
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(5);
  EXPECT_EQ(g.Value(), 7);  // SetMax never lowers
  g.SetMax(42);
  EXPECT_EQ(g.Value(), 42);
}

// ---------------------------------------------------------------- histograms

// Bucket upper bounds are 2^0..2^38: a value lands in the first bucket whose
// upper bound it does not exceed, so exact powers of two sit in their own
// bucket, not the next one.
TEST(HistogramTest, BucketBoundaries) {
  SKIP_WITHOUT_METRICS();
  Histogram h;
  h.Observe(0.5);   // <= 1        -> bucket le=1
  h.Observe(1.0);   // == 1        -> bucket le=1
  h.Observe(1.001); // > 1, <= 2   -> bucket le=2
  h.Observe(2.0);   // == 2        -> bucket le=2
  h.Observe(3.0);   // > 2, <= 4   -> bucket le=4

  std::vector<uint64_t> cum = h.CumulativeCounts();
  ASSERT_EQ(cum.size(), static_cast<size_t>(Histogram::kBuckets));
  EXPECT_EQ(cum[0], 2u);  // le=1
  EXPECT_EQ(cum[1], 4u);  // le=2
  EXPECT_EQ(cum[2], 5u);  // le=4
  EXPECT_EQ(cum[Histogram::kBuckets - 1], 5u);  // +Inf == total
  EXPECT_EQ(h.Count(), 5u);
  EXPECT_DOUBLE_EQ(h.Max(), 3.0);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 1.001 + 2.0 + 3.0);

  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(10), 1024.0);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperBound(Histogram::kBuckets - 1)));
}

TEST(HistogramTest, QuantilesAreBucketUpperBounds) {
  SKIP_WITHOUT_METRICS();
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.Observe(3);    // le=4
  for (int i = 0; i < 10; ++i) h.Observe(1000); // le=1024
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.90), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1024.0);
}

// Values beyond the largest finite bucket land in +Inf, whose quantile
// reports the observed max rather than infinity.
TEST(HistogramTest, OverflowBucketReportsMax) {
  SKIP_WITHOUT_METRICS();
  Histogram h;
  const double huge = 1e12;  // > 2^38
  h.Observe(huge);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), huge);
}

TEST(HistogramTest, ConcurrentObservationsKeepTotalCount) {
  SKIP_WITHOUT_METRICS();
  constexpr int kThreads = 4;
  constexpr int kObs = 20000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) h.Observe(t + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kObs);
  EXPECT_DOUBLE_EQ(h.Max(), kThreads);
}

// ------------------------------------------------------------------ registry

TEST(RegistryTest, SameSeriesReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("requests_total", "requests");
  Counter* b = reg.GetCounter("requests_total", "requests");
  EXPECT_EQ(a, b);
  // Different labels -> different series -> different instrument.
  Counter* c = reg.GetCounter("requests_total", "requests", {{"op", "scan"}});
  EXPECT_NE(a, c);
  // Same name as a different kind is a registration bug.
  EXPECT_THROW(reg.GetGauge("requests_total", "requests"), Error);
}

TEST(RegistryTest, PrometheusTextFormat) {
  SKIP_WITHOUT_METRICS();
  MetricsRegistry reg;
  reg.GetCounter("ops_total", "operations", {{"op", "scan"}})->Inc(3);
  reg.GetGauge("depth", "queue depth")->Set(-2);
  reg.GetHistogram("lat_ms", "latency")->Observe(5);

  std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("ops_total{op=\"scan\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"8\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 1"), std::string::npos);
}

// ToJson -> SnapshotFromJson -> ToJson must be byte-identical: the snapshot
// is the archival format CI diffs across runs.
TEST(RegistryTest, JsonRoundTrip) {
  SKIP_WITHOUT_METRICS();
  MetricsRegistry reg;
  reg.GetCounter("a_total", "a", {{"k", "v"}})->Inc(7);
  reg.GetGauge("b", "b gauge")->Set(9);
  Histogram* h = reg.GetHistogram("c_ms", "c latency");
  h->Observe(1);
  h->Observe(300);
  h->Observe(1e12);  // exercises the +Inf bucket in the round trip

  MetricsSnapshot snap = reg.Snapshot();
  std::string json = snap.ToJson();
  MetricsSnapshot parsed = obs::SnapshotFromJson(json);
  EXPECT_EQ(parsed.ToJson(), json);
  ASSERT_EQ(parsed.samples.size(), snap.samples.size());
  EXPECT_EQ(parsed.samples[0].name, "a_total");
  EXPECT_EQ(parsed.samples[0].labels.at("k"), "v");
}

// ----------------------------------------------------------------- query log

QueryLogRecord MakeRecord(const std::string& status) {
  QueryLogRecord rec;
  rec.status = status;
  return rec;
}

TEST(QueryLogTest, RingWraparoundKeepsNewestRecords) {
  QueryLog log(/*capacity=*/4, /*slow_ms=*/0);
  for (int i = 0; i < 10; ++i) log.Append(MakeRecord("ok"));
  EXPECT_EQ(log.appended(), 10u);
  EXPECT_EQ(log.dropped(), 6u);

  std::vector<QueryLogRecord> tail = log.Tail(100);
  ASSERT_EQ(tail.size(), 4u);  // never more than capacity
  EXPECT_EQ(tail.front().id, 7u);  // oldest survivor
  EXPECT_EQ(tail.back().id, 10u);  // newest
  // Tail(2) returns only the newest two, still oldest-first.
  tail = log.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].id, 9u);
  EXPECT_EQ(tail[1].id, 10u);
}

// The threshold is inclusive: a query at *exactly* slow_ms is slow. A
// threshold <= 0 disables capture no matter the duration.
TEST(QueryLogTest, SlowThresholdIsInclusive) {
  QueryLog log(8, /*slow_ms=*/50);
  EXPECT_FALSE(log.IsSlow(49.999));
  EXPECT_TRUE(log.IsSlow(50.0));
  EXPECT_TRUE(log.IsSlow(50.001));
  QueryLog disabled(8, /*slow_ms=*/0);
  EXPECT_FALSE(disabled.IsSlow(1e9));
}

TEST(QueryLogTest, ToStringCarriesStatusAndError) {
  QueryLogRecord rec = MakeRecord("failed");
  rec.id = 3;
  rec.error = "type error";
  rec.rows = 12;
  std::string s = rec.ToString();
  EXPECT_NE(s.find("failed"), std::string::npos);
  EXPECT_NE(s.find("type error"), std::string::npos);
}

// -------------------------------------------------------- plan-cache reasons

TEST(PlanCacheTest, EvictionReasonsAreSplit) {
  PlanCache cache(/*capacity=*/2);
  auto plan = std::make_shared<const PreparedPlan>();
  cache.Insert("a\n@v1", plan);
  cache.Insert("b\n@v1", plan);
  cache.Insert("c\n@v1", plan);  // LRU evicts "a"

  PlanCacheStats s = cache.Stats();
  EXPECT_EQ(s.evictions_capacity, 1u);
  EXPECT_EQ(s.evictions_invalidated, 0u);
  EXPECT_EQ(s.evictions, 1u);

  // A version-stamp change drops everything not compiled under the new
  // stamp — counted as invalidation, not capacity.
  EXPECT_EQ(cache.EvictNotMatching("\n@v2"), 2u);
  s = cache.Stats();
  EXPECT_EQ(s.evictions_capacity, 1u);
  EXPECT_EQ(s.evictions_invalidated, 2u);
  EXPECT_EQ(s.entries, 0u);

  cache.Insert("d\n@v2", plan);
  EXPECT_EQ(cache.EvictNotMatching("\n@v2"), 0u);  // survivor matches
  cache.Clear();
  s = cache.Stats();
  EXPECT_EQ(s.evictions_invalidated, 3u);
}

// ------------------------------------------------------------ service wiring

class MetricsServiceTest : public ::testing::Test {
 protected:
  Database db_ = workload::MakeCompanyDatabase({});
  const std::string query_ =
      "select distinct e.name from e in Employees where e.salary > 50000.0";
};

TEST_F(MetricsServiceTest, CountsQueriesAndCacheOutcomes) {
  SKIP_WITHOUT_METRICS();
  QueryService svc(db_);
  auto session = svc.OpenSession();
  svc.Execute(*session, query_);
  svc.Execute(*session, query_);
  svc.Execute(*session, query_);

  MetricsSnapshot snap = svc.metrics().Snapshot();
  auto value_of = [&](const std::string& name) -> double {
    double total = 0;
    for (const obs::MetricSample& s : snap.samples) {
      if (s.name == name) total += s.value;
    }
    return total;
  };
  EXPECT_EQ(value_of("ldb_queries_started_total"), 3);
  EXPECT_EQ(value_of("ldb_queries_ok_total"), 3);
  EXPECT_EQ(value_of("ldb_queries_failed_total"), 0);
  EXPECT_EQ(value_of("ldb_plan_cache_misses_total"), 1);
  EXPECT_EQ(value_of("ldb_plan_cache_hits_total"), 2);
  EXPECT_EQ(value_of("ldb_sessions_opened_total"), 1);

  // Histograms saw one observation per query.
  for (const obs::MetricSample& s : snap.samples) {
    if (s.name == "ldb_query_total_ms") {
      EXPECT_EQ(s.count, 3u);
    }
    if (s.name == "ldb_result_rows") {
      EXPECT_EQ(s.count, 3u);
    }
  }
}

TEST_F(MetricsServiceTest, QueryLogRecordsOutcomes) {
  QueryService svc(db_);
  auto session = svc.OpenSession();
  svc.Execute(*session, query_);
  EXPECT_THROW(svc.Execute(*session, "select x from"), Error);

  std::vector<QueryLogRecord> tail = svc.query_log().Tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].status, "ok");
  EXPECT_EQ(tail[0].session, session->id());
  EXPECT_GT(tail[0].rows, 0u);
  EXPECT_TRUE(tail[0].plan_cached == false);
  EXPECT_FALSE(tail[0].cache_key.empty());
  EXPECT_EQ(tail[1].status, "failed");
  EXPECT_FALSE(tail[1].error.empty());
}

// Satellite 1: a cancelled query must be logged with status "cancelled"
// (and counted as such), with the profiler's per-worker stats merged
// exactly once despite the unwind.
TEST_F(MetricsServiceTest, CancelledQueryLogsCancelledStatus) {
  workload::OO7Params p;
  p.n_composite_parts = 250;
  p.parts_per_composite = 20;  // 5000 atomic parts: outlives a 1ms deadline
  Database big = workload::MakeOO7Database(p);
  QueryService svc(big);
  SessionOptions so;
  so.deadline_ms = 1;
  auto session = svc.OpenSession(so);

  const std::string slow =
      "count(select struct(A: a.id, B: b.id) "
      "from a in AtomicParts, b in AtomicParts where a.x < b.y)";
  QueryProfiler prof;
  EXPECT_THROW(svc.Execute(*session, slow, nullptr, &prof), QueryCancelled);

  std::vector<QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].status, "cancelled");

  if (MetricsRegistry::Enabled()) {
    MetricsSnapshot snap = svc.metrics().Snapshot();
    double cancelled = 0;
    for (const obs::MetricSample& s : snap.samples) {
      if (s.name == "ldb_queries_cancelled_total") cancelled += s.value;
    }
    EXPECT_EQ(cancelled, 1);
  }
}

// Every query is slow at a zero-adjacent threshold: the log must capture the
// rendered plan (and the profile when one was attached).
TEST_F(MetricsServiceTest, SlowQueryCapturesPlanAndProfile) {
  ServiceOptions opts;
  opts.slow_query_ms = 1e-9;
  QueryService svc(db_, opts);
  auto session = svc.OpenSession();
  QueryProfiler prof;
  svc.Execute(*session, query_, nullptr, &prof);

  std::vector<QueryLogRecord> tail = svc.query_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(tail[0].slow);
  EXPECT_NE(tail[0].plan_text.find("TableScan"), std::string::npos);
  EXPECT_FALSE(tail[0].profile_json.empty());
  EXPECT_GT(svc.query_log().slow_count(), 0u);
}

TEST_F(MetricsServiceTest, UpdateCatalogInvalidatesCachedPlans) {
  QueryService svc(db_);
  auto session = svc.OpenSession();
  svc.Execute(*session, query_);
  EXPECT_EQ(svc.cache_stats().entries, 1u);

  Catalog cat = Catalog::FromDatabase(db_);
  cat.SetExtentCardinality("Employees", 999999);  // stamp must move
  svc.UpdateCatalog(cat);

  PlanCacheStats s = svc.cache_stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.evictions_invalidated, 1u);
  EXPECT_EQ(s.evictions_capacity, 0u);

  // Re-running recompiles under the new stamp and still answers correctly.
  Value v = svc.Execute(*session, query_);
  EXPECT_EQ(v, RunOQL(db_, query_));
  EXPECT_EQ(svc.cache_stats().misses, 2u);
}

// ------------------------------------------------------------ trace exporter

TEST_F(MetricsServiceTest, TraceExportIsWellFormedAndCoversWorkers) {
  OptimizerOptions options;
  options.trace = true;
  Optimizer opt(db_.schema(), options);
  CompiledQuery q = opt.Compile(ParseOQL(query_));
  PhysPtr phys = PlanPhysical(q.simplified, db_, options.physical);
  QueryProfiler prof;
  ExecOptions exec;
  exec.profiler = &prof;
  exec.n_threads = 2;
  Value result = ExecutePipelined(phys, db_, exec);
  EXPECT_EQ(result, RunOQL(db_, query_));

  std::string json = obs::TraceEventsJson(prof, q.trace.get());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Compile lane, execution lane(s), and per-operator summary lane.
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 3"), std::string::npos);
  EXPECT_NE(json.find("TableScan"), std::string::npos);
}

}  // namespace
}  // namespace ldb
