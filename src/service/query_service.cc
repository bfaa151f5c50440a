#include "src/service/query_service.h"

#include <chrono>
#include <functional>
#include <sstream>
#include <utility>

#include "src/core/normalize.h"
#include "src/lambdadb.h"
#include "src/oql/parser.h"
#include "src/oql/translate.h"
#include "src/runtime/exec_pipeline.h"
#include "src/runtime/physical_plan.h"
#include "src/runtime/serialize.h"
#include "src/runtime/slot_plan.h"

// Build identity for ldb_build_info. The root CMakeLists.txt passes both;
// the fallbacks cover builds that bypass it.
#ifndef LDB_GIT_COMMIT
#define LDB_GIT_COMMIT "unknown"
#endif
#ifndef LDB_BUILD_TYPE
#define LDB_BUILD_TYPE "unknown"
#endif

namespace ldb {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Fingerprint of everything outside the query text that shaped the plan:
/// the schema, the catalog statistics, and the plan-shaping optimizer
/// flags. Folded into every cache key so a plan compiled under one world
/// never serves another.
std::string ComputeVersionStamp(const Schema& schema,
                                const OptimizerOptions& o) {
  std::ostringstream os;
  for (const auto& [name, decl] : schema.classes()) {
    os << name << '[' << decl.extent;
    for (const auto& [attr, type] : decl.attributes)
      os << ' ' << attr << ':' << type->ToString();
    os << ']';
  }
  for (const auto& [extent, card] : o.catalog.cards())
    os << extent << '=' << card << ';';
  os << "n" << o.normalize << "s" << o.simplify << "m" << o.materialize_paths
     << "r" << o.reorder_joins << "h" << o.physical.use_hash_joins << "i"
     << o.physical.use_indexes;
  return std::to_string(std::hash<std::string>{}(os.str()));
}

uint64_t ResultRowCount(const Value& v) {
  return v.is_collection() ? static_cast<uint64_t>(v.AsElems().size()) : 1;
}

}  // namespace

/// Counting-semaphore admission with a bounded, deadline-aware wait queue.
/// Construction blocks until a slot frees (or throws); destruction releases
/// the slot, so a throwing execution can never leak one.
class QueryService::AdmissionGuard {
 public:
  AdmissionGuard(QueryService* svc, const CancelToken& token) : svc_(svc) {
    const Instruments& ins = svc_->ins_;
    MutexLock lock(&svc_->admission_mu_);
    if (svc_->running_ < svc_->options_.max_concurrent) {
      ++svc_->running_;
      if (ins.enabled) ins.queries_running->Set(svc_->running_);
      return;
    }
    if (svc_->waiting_ >= svc_->options_.max_queue) {
      throw AdmissionError(
          std::to_string(svc_->options_.max_concurrent) +
          " queries running and the wait queue of " +
          std::to_string(svc_->options_.max_queue) + " is full");
    }
    ++svc_->waiting_;
    if (ins.enabled) {
      ins.admission_waits->Inc();
      ins.admission_queue_depth->Set(static_cast<int64_t>(svc_->waiting_));
    }
    while (svc_->running_ >= svc_->options_.max_concurrent) {
      svc_->admission_cv_.WaitForMs(svc_->admission_mu_, 5);
      if (token.Expired()) {
        --svc_->waiting_;
        if (ins.enabled) {
          ins.admission_timeouts->Inc();
          ins.admission_queue_depth->Set(static_cast<int64_t>(svc_->waiting_));
        }
        token.ThrowIfCancelled();
      }
    }
    --svc_->waiting_;
    ++svc_->running_;
    if (ins.enabled) {
      ins.queries_running->Set(svc_->running_);
      ins.admission_queue_depth->Set(static_cast<int64_t>(svc_->waiting_));
    }
  }

  ~AdmissionGuard() {
    MutexLock lock(&svc_->admission_mu_);
    --svc_->running_;
    if (svc_->ins_.enabled) svc_->ins_.queries_running->Set(svc_->running_);
    svc_->admission_cv_.NotifyOne();
  }

  AdmissionGuard(const AdmissionGuard&) = delete;
  AdmissionGuard& operator=(const AdmissionGuard&) = delete;

 private:
  QueryService* svc_;
};

QueryService::QueryService(const Database& db, ServiceOptions options)
    : db_(db),
      options_(std::move(options)),
      cache_(options_.plan_cache_capacity),
      query_log_(kQueryLogCapacity, options_.slow_query_ms),
      trace_ring_(obs::TraceRing::Options{kTraceRingCapacity,
                                          options_.slow_query_ms,
                                          options_.trace_head_every}) {
  if (options_.max_concurrent < 1) options_.max_concurrent = 1;
  config_ = std::make_shared<const PlanningConfig>(PlanningConfig{
      options_.optimizer,
      ComputeVersionStamp(db_.schema(), options_.optimizer)});
  InitInstruments();
}

void QueryService::InitInstruments() {
  // Registered before the enabled gate so scrapes can always tell what build
  // (and metrics mode) they are looking at, even on an OFF build where every
  // other series is absent.
  metrics_
      .GetGauge("ldb_build_info",
                "Build identity; value is constant 1, labels carry the info",
                {{"commit", LDB_GIT_COMMIT},
                 {"build_type", LDB_BUILD_TYPE},
                 {"metrics", obs::MetricsRegistry::Enabled() ? "on" : "off"}})
      ->Set(1);
  if (!ins_.enabled) return;
  obs::MetricsRegistry& m = metrics_;
  ins_.queries_started =
      m.GetCounter("ldb_queries_started_total", "Queries the service accepted");
  ins_.queries_ok =
      m.GetCounter("ldb_queries_ok_total", "Queries that returned a result");
  ins_.queries_failed = m.GetCounter("ldb_queries_failed_total",
                                     "Queries that threw (parse/type/eval)");
  ins_.queries_cancelled =
      m.GetCounter("ldb_queries_cancelled_total",
                   "Queries aborted by cancellation or deadline");
  ins_.queries_rejected = m.GetCounter(
      "ldb_queries_rejected_total", "Queries refused at admission (queue full)");
  ins_.slow_queries = m.GetCounter(
      "ldb_slow_queries_total", "Queries at or above the slow-query threshold");
  ins_.sessions_opened =
      m.GetCounter("ldb_sessions_opened_total", "Sessions created");
  ins_.admission_waits = m.GetCounter(
      "ldb_admission_waits_total", "Queries that had to queue for a slot");
  ins_.admission_timeouts =
      m.GetCounter("ldb_admission_timeouts_total",
                   "Queries whose deadline expired while queued");
  ins_.admission_wait_ms = m.GetHistogram(
      "ldb_admission_wait_ms", "Milliseconds spent waiting for admission");
  ins_.queries_running =
      m.GetGauge("ldb_queries_running", "Queries executing right now");
  ins_.admission_queue_depth =
      m.GetGauge("ldb_admission_queue_depth", "Queries waiting for admission");
  ins_.compile_ms = m.GetHistogram(
      "ldb_query_compile_ms", "Milliseconds in parse + key build + compile");
  ins_.exec_ms =
      m.GetHistogram("ldb_query_exec_ms", "Milliseconds executing the plan");
  ins_.total_ms = m.GetHistogram("ldb_query_total_ms",
                                 "End-to-end query milliseconds (incl. queue)");
  ins_.result_rows =
      m.GetHistogram("ldb_result_rows", "Rows in the materialized result");
  ins_.result_bytes = m.GetHistogram(
      "ldb_result_bytes", "Estimated result bytes (every successful query)");
  ins_.result_bytes_peak = m.GetGauge(
      "ldb_result_bytes_peak",
      "Largest estimated result seen (sessions with a memory budget)");
  ins_.root_rows = m.GetCounter("ldb_root_rows_total",
                                "Rows folded by root reduces (all queries)");
  ins_.morsels = m.GetCounter("ldb_morsels_dispatched_total",
                              "Morsels executed by parallel pipelines");
  ins_.worker_busy_ns = m.GetCounter(
      "ldb_worker_busy_ns_total", "Nanoseconds workers spent executing morsels");
  ins_.parallel_execs = m.GetCounter("ldb_parallel_executions_total",
                                     "Queries that ran a parallel pipeline");
  ins_.queries_over_budget =
      m.GetCounter("ldb_queries_over_budget_total",
                   "Queries aborted for exceeding the session memory budget");
  ins_.query_mem_peak = m.GetHistogram(
      "ldb_query_mem_peak_bytes",
      "Peak tracked engine memory per query (joins, nests, folds)");
  ins_.mem_in_use =
      m.GetGauge("ldb_mem_in_use_bytes",
                 "Tracked engine bytes currently held by active queries");
  ins_.active_queries =
      m.GetGauge("ldb_active_queries",
                 "Queries accepted and not yet finished (any phase)");
  static constexpr PhysKind kKinds[] = {
      PhysKind::kUnitRow,      PhysKind::kTableScan, PhysKind::kIndexScan,
      PhysKind::kFilter,       PhysKind::kNLJoin,    PhysKind::kHashJoin,
      PhysKind::kNLOuterJoin,  PhysKind::kHashOuterJoin,
      PhysKind::kUnnest,       PhysKind::kOuterUnnest,
      PhysKind::kHashNest,     PhysKind::kGroupJoin,
      PhysKind::kReduce,
  };
  for (PhysKind k : kKinds) {
    ins_.op_rows[static_cast<int>(k)] =
        m.GetCounter("ldb_operator_rows_total",
                     "Rows produced per operator class (profiled executions)",
                     {{"op", PhysKindName(k)}});
    ins_.op_mem_peak[static_cast<int>(k)] = m.GetGauge(
        "ldb_operator_mem_peak_bytes",
        "Highest single-query memory peak per operator class",
        {{"op", PhysKindName(k)}});
  }
  cache_.SetMetricHooks(PlanCache::MetricHooks{
      m.GetCounter("ldb_plan_cache_hits_total", "Plan-cache lookup hits"),
      m.GetCounter("ldb_plan_cache_misses_total",
                   "Plan-cache lookup misses (compiles)"),
      m.GetCounter("ldb_plan_cache_evictions_total",
                   "Plans evicted, by reason", {{"reason", "capacity"}}),
      m.GetCounter("ldb_plan_cache_evictions_total",
                   "Plans evicted, by reason", {{"reason", "invalidated"}}),
      m.GetGauge("ldb_plan_cache_entries", "Plans currently cached"),
  });
}

Database QueryService::LoadWithIndexes(std::istream& in) {
  Database db = LoadDatabase(in);
  RebuildIndexes(db);
  return db;
}

std::shared_ptr<Session> QueryService::OpenSession(SessionOptions options) {
  if (ins_.enabled) ins_.sessions_opened->Inc();
  return std::make_shared<Session>(
      std::move(options), next_session_id_.fetch_add(1) + 1);
}

Statement QueryService::Prepare(const std::string& oql) {
  oql::Parse(oql);  // surface syntax errors at prepare time
  return Statement{oql, nullptr};
}

Value QueryService::Execute(Session& session, Statement& stmt,
                            QueryStats* stats, QueryProfiler* profiler) {
  return Run(session, stmt, stats, profiler);
}

Value QueryService::Execute(Session& session, const std::string& oql,
                            QueryStats* stats, QueryProfiler* profiler) {
  Statement adhoc{oql, nullptr};
  return Run(session, adhoc, stats, profiler);
}

int QueryService::running() const {
  MutexLock lock(&admission_mu_);
  return running_;
}

void QueryService::RecordSerialize(uint64_t log_id, uint64_t trace_id,
                                   double start_ms, double dur_ms) {
  if (log_id != 0) query_log_.SetSerializeMs(log_id, dur_ms);
  if (trace_id != 0 && trace_ring_.capacity() > 0) {
    obs::TraceSpan s;  // span/parent ids assigned by AppendSpan (root child)
    s.name = "serialize";
    s.lane = "worker";
    s.start_ms = start_ms;
    s.dur_ms = dur_ms;
    trace_ring_.AppendSpan(trace_id, s);
  }
}

std::shared_ptr<const QueryService::PlanningConfig>
QueryService::PlanningSnapshot() const {
  MutexLock lock(&config_mu_);
  return config_;
}

void QueryService::UpdateCatalog(const Catalog& catalog) {
  std::string stamp;
  {
    MutexLock lock(&config_mu_);
    auto next = std::make_shared<PlanningConfig>(*config_);
    next->optimizer.catalog = catalog;
    next->stamp = ComputeVersionStamp(db_.schema(), next->optimizer);
    stamp = next->stamp;
    config_ = std::move(next);
  }
  // Plans compiled under the old stamp can never be looked up again (every
  // new key carries the new stamp) — drop them now so the eviction is
  // attributed to invalidation rather than to later capacity pressure.
  // (Outside config_mu_: the cache has its own lock and a racing compile
  // that re-inserts an old-stamp plan merely leaves an unreachable entry
  // for LRU pressure to reclaim.)
  cache_.EvictNotMatching(stamp);
}

std::shared_ptr<const PreparedPlan> QueryService::GetOrCompile(
    const std::string& oql, const PlanningConfig& cfg, bool* cached) {
  oql::OrderedQuery q = oql::TranslateWithOrdering(oql::Parse(oql));
  // Normalization is strongly normalizing, so the normal form, up to the
  // names of its bound variables, is a canonical name for the query: two
  // texts with the same normal form share one cache entry (docs/SERVICE.md).
  PlanKey key(cfg.optimizer.normalize ? Normalize(q.comp) : q.comp, cfg.stamp,
              std::move(q.descending));
  if (auto hit = cache_.Lookup(key)) {
    *cached = true;
    return hit;
  }
  *cached = false;

  OptimizerOptions compile_opts = cfg.optimizer;
  // Stage wall times become "compile:<stage>" child spans in request traces.
  // Compiles happen once per distinct plan, so the counting rewriter's
  // overhead stays off the cached (steady-state) path.
  if (obs::TraceRing::Enabled()) compile_opts.trace = true;
  Optimizer opt(db_.schema(), compile_opts);
  auto plan = std::make_shared<PreparedPlan>();
  plan->compiled = opt.Compile(q.comp, key.term);  // normalizes nothing
  LoweredPlan lowered = opt.Lower(plan->compiled, db_);
  plan->physical = std::move(lowered.physical);
  plan->slots = std::move(lowered.slots);
  plan->key = std::move(key);
  cache_.Insert(plan);
  return plan;
}

Value QueryService::Run(Session& session, Statement& stmt, QueryStats* stats,
                        QueryProfiler* profiler) {
  CancelToken& token = session.token();
  token.Reset();
  if (session.options().deadline_ms > 0)
    token.SetDeadlineAfterMs(session.options().deadline_ms);

  if (ins_.enabled) ins_.queries_started->Inc();

  obs::QueryLogRecord rec;
  rec.session = session.id();
  rec.remote = session.peer();
  rec.query_hash = std::hash<std::string>{}(stmt.oql);
  rec.threads = session.options().n_threads;

  // Adopt the wire-propagated trace context — or mint an id, so slow and
  // failing requests land in the trace ring (and histogram exemplars) even
  // when the client did not ask to be traced. The context is consumed here:
  // a later query on this session cannot inherit it.
  obs::TraceContext tctx = session.trace_context();
  const double pre_wait_ms = session.trace_pre_wait_ms();
  const bool client_traced = obs::TraceRing::Enabled() && tctx.valid();
  session.clear_trace();
  if (!obs::TraceRing::Enabled()) {
    // Compiled-out tracer: drop even a client-sent context so the id the
    // wire reports (EXEC_OK, query log) is honestly 0, not an id no ring
    // will ever resolve.
    tctx = obs::TraceContext{};
  } else if (!client_traced) {
    tctx.trace_id = obs::MintTraceId();
  }
  rec.trace_id = tctx.trace_id;
  rec.queue_wait_ms = pre_wait_ms;

  // Per-operator timing costs a decorator call per row, so only a request
  // that asks for it pays it: a force-sampled one, whose trace the ring
  // keeps. Every other request, client-traced or not, runs the
  // uninstrumented iterator tree; its trace's morsel spans come from the
  // run record, which the executor fills on every run.
  const bool force_sample =
      (tctx.flags & obs::TraceContext::kForceSample) != 0;
  QueryProfiler local_profiler;
  if (profiler == nullptr && force_sample) profiler = &local_profiler;
  ExecTotals run;

  // One resource context per query, shared by every thread that executes it
  // and by the active-query registry (which is why it is a shared_ptr: a
  // `.queries` snapshot may still be reading it as the query finishes).
  auto resource = std::make_shared<obs::QueryResourceContext>(
      session.options().memory_budget_bytes);
  uint64_t active_id = active_.Register(session.id(), rec.query_hash, resource,
                                        session.peer());

  Clock::time_point t0 = Clock::now();
  std::shared_ptr<const PreparedPlan> plan;

  // Classifies the outcome, flushes the per-query metrics, captures the
  // slow-query plan/profile, and appends the log record — on every exit
  // path, including the unwinds.
  auto finalize = [&](const char* status, const std::string& error) {
    double total_ms = MsBetween(t0, Clock::now());
    rec.status = status;
    rec.error = error;
    rec.slow = query_log_.IsSlow(total_ms);
    rec.mem_peak_bytes = resource->PeakBytes();
    int dominant = resource->DominantOp();
    if (dominant >= 0) rec.mem_op = PhysKindName(static_cast<PhysKind>(dominant));
    active_.Unregister(active_id);
    if (ins_.enabled) {
      ins_.total_ms->Observe(total_ms, tctx.trace_id);
      ins_.query_mem_peak->Observe(static_cast<double>(rec.mem_peak_bytes));
      ins_.mem_in_use->Set(static_cast<int64_t>(active_.SumInUseBytes()));
      ins_.active_queries->Set(static_cast<int64_t>(active_.Count()));
      for (const auto& [cls, gauge] : ins_.op_mem_peak) {
        uint64_t peak = resource->OpPeakBytes(cls);
        if (peak > 0) gauge->SetMax(static_cast<int64_t>(peak));
      }
      if (rec.slow) ins_.slow_queries->Inc();
      if (profiler != nullptr) {
        // Per-operator-class row totals come from the profiler, which the
        // executors merge exactly once even on a cancellation unwind.
        for (const OperatorStats* s : profiler->Operators()) {
          auto it = ins_.op_rows.find(static_cast<int>(s->kind));
          if (it != ins_.op_rows.end()) it->second->Inc(s->rows_out);
        }
      }
    }
    if (rec.slow) {
      if (plan != nullptr) rec.plan_text = PrintPhysicalPlan(plan->physical);
      if (profiler != nullptr) rec.profile_json = ProfileToJson(*profiler);
    }

    // Assemble the span tree from the timings gathered above and offer it
    // to the tail-sampling ring (which decides keep/drop from the outcome).
    // Offsets are from the trace origin: the wire read for served requests
    // (pre_wait_ms before t0), t0 itself for in-process calls.
    if (obs::TraceRing::Enabled() && trace_ring_.capacity() > 0 &&
        tctx.trace_id != 0) {
      obs::RequestTrace t;
      t.trace_id = tctx.trace_id;
      t.client_parent_span_id = tctx.parent_span_id;
      t.client_context = client_traced;
      t.force_sample = force_sample;
      t.session = rec.session;
      t.query_hash = rec.query_hash;
      t.status = rec.status;
      const bool compiled = !rec.plan_cached && plan != nullptr;
      obs::BuildRequestTrace(
          {pre_wait_ms, rec.queue_ms, rec.compile_ms, rec.exec_ms},
          pre_wait_ms + total_ms,
          compiled ? plan->compiled.trace.get() : nullptr, run, profiler, &t);
      trace_ring_.Submit(std::move(t));
    }

    uint64_t log_id = query_log_.Append(std::move(rec));
    if (stats != nullptr) {
      stats->trace_id = tctx.trace_id;
      stats->log_id = log_id;
      stats->queue_wait_ms = pre_wait_ms;
    }
  };

  try {
    Value result = RunAdmitted(session, stmt, stats, profiler, &run, t0, &rec,
                               &plan, resource.get(), active_id);
    if (ins_.enabled) ins_.queries_ok->Inc();
    finalize("ok", "");
    return result;
  } catch (const AdmissionError& e) {
    if (ins_.enabled) ins_.queries_rejected->Inc();
    finalize("rejected", e.what());
    throw;
  } catch (const QueryCancelled& e) {
    if (ins_.enabled) ins_.queries_cancelled->Inc();
    finalize("cancelled", e.what());
    throw;
  } catch (const obs::QueryMemoryExceeded& e) {
    if (ins_.enabled) ins_.queries_over_budget->Inc();
    finalize("over_budget", e.what());
    throw;
  } catch (const Error& e) {
    if (ins_.enabled) ins_.queries_failed->Inc();
    finalize("failed", e.what());
    throw;
  } catch (...) {
    if (ins_.enabled) ins_.queries_failed->Inc();
    finalize("failed", "(non-Error exception)");
    throw;
  }
}

Value QueryService::RunAdmitted(Session& session, Statement& stmt,
                                QueryStats* stats, QueryProfiler* profiler,
                                ExecTotals* run, Clock::time_point t0,
                                obs::QueryLogRecord* rec,
                                std::shared_ptr<const PreparedPlan>* plan_out,
                                obs::QueryResourceContext* resource,
                                uint64_t active_id) {
  CancelToken& token = session.token();

  AdmissionGuard guard(this, token);
  active_.SetPhase(active_id, "compiling");
  Clock::time_point t1 = Clock::now();
  rec->queue_ms = MsBetween(t0, t1);
  if (ins_.enabled) ins_.admission_wait_ms->Observe(rec->queue_ms, rec->trace_id);

  // A bound handle whose plan carries the current stamp runs it as is: no
  // parse, no cache lookup. Anything else resolves through the cache.
  const std::shared_ptr<const PlanningConfig> cfg = PlanningSnapshot();
  bool cached = true;
  if (stmt.plan == nullptr || stmt.plan->key.stamp != cfg->stamp) {
    stmt.plan = GetOrCompile(stmt.oql, *cfg, &cached);
  }
  *plan_out = stmt.plan;
  const PreparedPlan& plan = *stmt.plan;
  Clock::time_point t2 = Clock::now();
  rec->compile_ms = MsBetween(t1, t2);
  rec->plan_cached = cached;
  if (!cached && cfg->optimizer.verify_plans)
    rec->verify = "ok";  // a verifier rejection would have thrown above
  if (ins_.enabled) ins_.compile_ms->Observe(rec->compile_ms, rec->trace_id);

  ExecOptions eo;
  eo.n_threads = session.options().n_threads;
  eo.morsel_size = session.options().morsel_size;
  eo.profiler = profiler;
  eo.cancel = &token;
  eo.params = &session.bindings();
  eo.resource = resource;
  eo.totals = run;

  // The executor fills the run record even on a cancellation unwind, so
  // the always-on counters see partial work from aborted queries too.
  auto flush_totals = [&] {
    if (!ins_.enabled) return;
    double busy_ns = 0;
    for (const WorkerStats& w : run->workers) busy_ns += w.busy_ns;
    ins_.root_rows->Inc(run->root_rows);
    ins_.morsels->Inc(run->morsels.size());
    ins_.worker_busy_ns->Inc(static_cast<uint64_t>(busy_ns));
    if (!run->workers.empty()) ins_.parallel_execs->Inc();
  };

  Value result;
  active_.SetPhase(active_id, "executing");
  try {
    // The cached SlotPlan is immutable and executes with per-call frames,
    // so sharing it across concurrent sessions is safe — and skipping
    // CompileSlotPlan here is most of what a cache hit buys.
    result = ExecuteSlotPlan(plan.slots, db_, eo);
  } catch (...) {
    rec->exec_ms = MsBetween(t2, Clock::now());  // the trace's execute span
    flush_totals();
    throw;
  }
  if (plan.key.ordered())
    result = internal::SortOrderedResult(result, plan.key.descending);
  Clock::time_point t3 = Clock::now();
  rec->exec_ms = MsBetween(t2, t3);
  rec->rows = ResultRowCount(result);
  flush_totals();
  if (ins_.enabled) {
    ins_.exec_ms->Observe(rec->exec_ms, rec->trace_id);
    ins_.result_rows->Observe(static_cast<double>(rec->rows));
  }

  // Backstop: an executor path that released its reservations through a
  // no-throw flush may have latched the over-budget verdict without ever
  // surfacing it — refuse the result here rather than return it.
  if (resource != nullptr && resource->OverBudget()) {
    throw obs::QueryMemoryExceeded(resource->InUseBytes(),
                                   session.options().memory_budget_bytes);
  }

  // Tracked engine memory (above) covers the build sides; the materialized
  // result is the other large allocation, so it is budgeted too.
  uint64_t budget = session.options().memory_budget_bytes;
  if (ins_.enabled || budget > 0) {
    size_t estimate = EstimateValueBytes(result);
    if (ins_.enabled) {
      ins_.result_bytes->Observe(static_cast<double>(estimate));
      ins_.result_bytes_peak->SetMax(static_cast<int64_t>(estimate));
    }
    if (budget > 0 && estimate > budget) {
      throw obs::QueryMemoryExceeded(estimate, budget);
    }
  }

  PlanCacheStats cs = cache_.Stats();
  if (profiler != nullptr) {
    profiler->plan_cached = cached ? 1 : 0;
    profiler->cache_hits = cs.hits;
    profiler->cache_misses = cs.misses;
    profiler->cache_evictions = cs.evictions;
  }
  if (stats != nullptr) {
    stats->plan_cached = cached;
    stats->queue_ms = rec->queue_ms;
    stats->compile_ms = rec->compile_ms;
    stats->exec_ms = rec->exec_ms;
    stats->cache = cs;
  }
  return result;
}

}  // namespace ldb
