// QueryService: a concurrent query front end over one shared immutable
// Database (docs/SERVICE.md).
//
// The service owns the serving concerns the compiler and executors
// deliberately do not:
//
//   * a parameterized plan cache — queries are compiled once per distinct
//     normalized calculus form and the compiled plan (physical + slot) is
//     reused across bindings and sessions;
//   * prepared statements — caller-owned Statement handles bound to their
//     compiled plan, so a repeat execution skips parse and cache lookup;
//   * sessions — per-client bindings, deadline, memory budget, and the
//     CancelToken the executor polls;
//   * admission — at most `max_concurrent` queries execute at once; up to
//     `max_queue` more wait on a condition variable (deadline-aware), and
//     anything beyond that is rejected with AdmissionError;
//   * observability — a MetricsRegistry (counters/gauges/histograms over
//     every query the service runs) and a structured query log, one record
//     per query, with slow-query plan/profile capture and tail-sampled
//     request traces (src/obs/, docs/OBSERVABILITY.md).
//
// The Database is shared read-only: every execution builds its own iterator
// tree / frames, so any number of sessions may run against it concurrently.

#ifndef LAMBDADB_SERVICE_QUERY_SERVICE_H_
#define LAMBDADB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <istream>
#include <map>
#include <memory>
#include <string>

#include "src/core/optimizer.h"
#include "src/core/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/obs/query_log.h"
#include "src/obs/resource.h"
#include "src/runtime/database.h"
#include "src/runtime/error.h"
#include "src/runtime/profile.h"
#include "src/service/plan_cache.h"
#include "src/service/session.h"

namespace ldb {

/// Raised when a query cannot even be queued: `max_concurrent` queries are
/// running and `max_queue` more are already waiting.
class AdmissionError : public Error {
 public:
  explicit AdmissionError(const std::string& msg)
      : Error("admission rejected: " + msg) {}
};

/// Query-log ring size (records kept before the oldest is overwritten).
constexpr size_t kQueryLogCapacity = 256;
/// Tail-sampled records the query log keeps with their spans, its trace
/// ring (0 when metrics are compiled out, docs/OBSERVABILITY.md).
constexpr size_t kTraceRingCapacity = 64;

struct ServiceOptions {
  /// Queries executing at once; further arrivals wait.
  int max_concurrent = 4;
  /// Waiters allowed beyond the running set; further arrivals get
  /// AdmissionError immediately.
  size_t max_queue = 16;
  /// Plan-cache capacity in entries (LRU beyond that).
  size_t plan_cache_capacity = 64;
  /// Compile-side knobs (normalize/simplify/physical selection/catalog).
  /// The exec member is ignored — execution knobs come from each session.
  OptimizerOptions optimizer;
  /// Queries whose total wall time from the trace origin (the wire read for
  /// served requests) reaches this threshold are slow: their log record
  /// captures the rendered plan and profiler snapshot, and the trace ring
  /// keeps them. <= 0 disables slow capture.
  double slow_query_ms = 50;
  /// Head-sample every Nth finished query into the trace ring in addition
  /// to the tail policy (slow / errored / forced always kept); 0 disables
  /// head sampling.
  uint32_t trace_head_every = 128;
};

/// A prepared statement: OQL text plus the compiled plan it last resolved
/// to (null until its first execution). Caller-owned and used by one caller
/// at a time. QueryService::Execute runs a bound handle's plan directly and
/// re-resolves it through the plan cache only when the plan's version stamp
/// is no longer the service's current one (UpdateCatalog moved it).
struct Statement {
  std::string oql;
  std::shared_ptr<const PreparedPlan> plan;
};

class QueryService {
 public:
  explicit QueryService(const Database& db, ServiceOptions options = {});

  /// Loads a database dump and rebuilds every index declared in it, so
  /// index-backed access paths survive a dump/load round trip (plain
  /// LoadDatabase only records the declarations).
  static Database LoadWithIndexes(std::istream& in);

  /// Creates an execution context. Sessions are independent; one session
  /// runs one query at a time (calls on the same session must not overlap,
  /// except Cancel(), which is safe from any thread).
  std::shared_ptr<Session> OpenSession(SessionOptions options = {});

  /// Parses `oql` eagerly (so syntax errors surface here) and returns an
  /// unbound Statement. Its first execution resolves the plan through the
  /// plan cache (compiling on a miss) and binds it to the handle.
  static Statement Prepare(const std::string& oql);

  /// Executes `stmt` with the session's current bindings/deadline/cancel
  /// token: admission -> plan resolution -> execute. A bound handle whose
  /// plan carries the current version stamp runs that plan with no parse
  /// and no cache lookup; an unbound or stale one goes through the plan
  /// cache and is rebound to the result.
  ///
  /// `rec`, when given, is a fresh record on which the caller sets the
  /// request's trace context (trace_id, parent_span_id, force_sample) and
  /// the wait it spent before reaching the service (queue_wait_ms); the
  /// service reads nothing else from it. On return, and when Execute
  /// throws, it holds the record as the query log appended it: its id,
  /// outcome, phase times, plan_cached and span tree. Without a trace id
  /// the service mints one; with metrics compiled out it drops the trace
  /// context, and the id stays 0.
  ///
  /// The execution is profiled when `profiler` is given or the record asks
  /// for force sampling (the service then profiles into its own); every
  /// other query runs the uninstrumented engine.
  Value Execute(Session& session, Statement& stmt,
                obs::QueryLogRecord* rec = nullptr,
                QueryProfiler* profiler = nullptr);

  /// One-shot: runs `oql` as an unbound temporary Statement (one parse, one
  /// cache lookup, a compile on a miss).
  Value Execute(Session& session, const std::string& oql,
                obs::QueryLogRecord* rec = nullptr,
                QueryProfiler* profiler = nullptr);

  PlanCacheStats cache_stats() const { return cache_.Stats(); }
  void ClearCache() { cache_.Clear(); }

  /// Swaps in new catalog statistics, recomputes the version stamp, and
  /// drops every cached plan compiled under the old stamp (they count as
  /// invalidation evictions, not capacity evictions). Safe against
  /// concurrent Execute calls: each query snapshots the planning config
  /// (catalog + stamp) under config_mu_, so an in-flight compile finishes
  /// under the world it started in and its plan simply becomes
  /// unreachable under the new stamp. Bound Statements notice the new
  /// stamp on their next execution and re-resolve once.
  void UpdateCatalog(const Catalog& catalog) LDB_EXCLUDES(config_mu_);

  /// Service-wide metrics (docs/OBSERVABILITY.md has the catalog). The
  /// registry exists even with metrics disabled; it then renders zeros.
  obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The structured query log: one record per finished query, the recent
  /// ones plus the tail-sampled trace ring (slow queries carry plan +
  /// profile snapshots; kept ones their spans). The network server patches
  /// reply serialization in with RecordSerialize.
  obs::QueryLog& query_log() const { return query_log_; }

  /// Live snapshot of every accepted-but-unfinished query (session, query
  /// hash, phase, elapsed, rows and bytes so far) — the service's
  /// pg_stat_activity. Safe from any thread; works with metrics disabled.
  std::vector<obs::ActiveQueryInfo> ActiveQueries() const {
    return active_.Snapshot();
  }

  const Database& db() const { return db_; }
  /// Construction-time options. `optimizer.catalog` reflects construction;
  /// the live planning catalog (which UpdateCatalog swaps) is internal.
  const ServiceOptions& options() const { return options_; }

  /// Queries currently executing (not queued); for tests and monitoring.
  int running() const LDB_EXCLUDES(admission_mu_);

 private:
  class AdmissionGuard;

  /// Metric instruments, registered once at construction and cached so the
  /// per-query path never touches the registry mutex. `enabled` is false
  /// when metrics are compiled out, and every instrument is then null.
  struct Instruments {
    static constexpr bool enabled = obs::MetricsRegistry::Enabled();
    obs::Counter* queries_started = nullptr;
    obs::Counter* queries_ok = nullptr;
    obs::Counter* queries_failed = nullptr;
    obs::Counter* queries_cancelled = nullptr;
    obs::Counter* queries_rejected = nullptr;
    obs::Counter* slow_queries = nullptr;
    obs::Counter* sessions_opened = nullptr;
    obs::Counter* admission_waits = nullptr;
    obs::Counter* admission_timeouts = nullptr;
    obs::Histogram* admission_wait_ms = nullptr;
    obs::Gauge* queries_running = nullptr;
    obs::Gauge* admission_queue_depth = nullptr;
    obs::Histogram* compile_ms = nullptr;
    obs::Histogram* exec_ms = nullptr;
    obs::Histogram* total_ms = nullptr;
    obs::Histogram* result_rows = nullptr;
    obs::Histogram* result_bytes = nullptr;
    obs::Gauge* result_bytes_peak = nullptr;
    obs::Counter* root_rows = nullptr;
    obs::Counter* morsels = nullptr;
    obs::Counter* worker_busy_ns = nullptr;
    obs::Counter* parallel_execs = nullptr;
    obs::Counter* queries_over_budget = nullptr;
    obs::Histogram* query_mem_peak = nullptr;
    obs::Gauge* mem_in_use = nullptr;
    obs::Gauge* active_queries = nullptr;
    /// rows_out per operator class, keyed by static_cast<int>(PhysKind);
    /// fed from the profiler, so only profiled executions contribute (an
    /// explicit profiler, or a force-sampled trace).
    std::map<int, obs::Counter*> op_rows;
    /// Highest per-query peak per operator class (tracked executions).
    std::map<int, obs::Gauge*> op_mem_peak;
  };
  void InitInstruments();

  /// The mutable planning state: the optimizer options whose catalog
  /// UpdateCatalog swaps, plus the version stamp derived from them.
  /// Immutable once published; UpdateCatalog publishes a new one. Every
  /// query takes one snapshot and plans entirely against it.
  struct PlanningConfig {
    OptimizerOptions optimizer;
    std::string stamp;
  };
  std::shared_ptr<const PlanningConfig> PlanningSnapshot() const
      LDB_EXCLUDES(config_mu_);

  /// Cache lookup by normalized-form key; compiles under `cfg` and inserts
  /// on a miss. Sets *cached to whether the lookup hit.
  std::shared_ptr<const PreparedPlan> GetOrCompile(const std::string& oql,
                                                   const PlanningConfig& cfg,
                                                   bool* cached);

  /// Admission + plan resolution + execution + ordered-sort + budget check;
  /// classifies the outcome into metrics and the query log (status ok /
  /// failed / cancelled / rejected, slow-query plan + profile capture, span
  /// tree).
  Value Run(Session& session, Statement& stmt, obs::QueryLogRecord* out,
            QueryProfiler* profiler);

  /// The admitted part of Run (everything inside the admission slot).
  /// `*plan_out` receives the plan as soon as it is known so the caller can
  /// render it for the slow-query log even when execution throws; `*run`
  /// receives the executor's run record, partial on an unwind.
  Value RunAdmitted(Session& session, Statement& stmt, QueryProfiler* profiler,
                    ExecTotals* run, std::chrono::steady_clock::time_point t0,
                    obs::QueryLogRecord* rec,
                    std::shared_ptr<const PreparedPlan>* plan_out,
                    obs::QueryResourceContext* resource, uint64_t active_id);

  const Database& db_;
  ServiceOptions options_;  ///< immutable after construction
  mutable PlanCache cache_;

  /// Guards the planning-config pointer. Never held across a compile or an
  /// execution — only long enough to copy or swap the shared_ptr.
  mutable Mutex config_mu_;
  std::shared_ptr<const PlanningConfig> config_ LDB_GUARDED_BY(config_mu_);

  mutable obs::MetricsRegistry metrics_;
  mutable obs::QueryLog query_log_;
  mutable obs::ActiveQueryRegistry active_;
  Instruments ins_;
  std::atomic<uint64_t> next_session_id_{0};

  mutable Mutex admission_mu_;
  CondVar admission_cv_;
  int running_ LDB_GUARDED_BY(admission_mu_) = 0;
  size_t waiting_ LDB_GUARDED_BY(admission_mu_) = 0;
};

}  // namespace ldb

#endif  // LAMBDADB_SERVICE_QUERY_SERVICE_H_
