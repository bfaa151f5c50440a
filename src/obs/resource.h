// Per-query resource accounting: tracked memory attribution, rows-so-far,
// runtime budget enforcement, and the live query registry (docs/
// OBSERVABILITY.md has the catalog and docs/SERVICE.md the budget contract).
//
// Three pieces:
//
//  * QueryResourceContext — one per executing query. Atomic current/peak
//    byte counters, globally and per operator class, plus a rows-so-far
//    counter and the session's memory budget. Shared by every thread that
//    works on the query (serial executor, prebuild pass, morsel workers,
//    serial tail).
//  * MemoryTracker — one per FrameEvaluator, i.e. one per executing
//    thread. Charges and releases accumulate in
//    plain thread-local fields and flush to the context in batches, so the
//    per-row cost is an add and a compare, not an atomic RMW. A flush that
//    pushes the query over its budget throws QueryMemoryExceeded — the same
//    cooperative-abort shape as cancellation, firing mid-build instead of
//    after the result is materialized.
//  * ActiveQueryRegistry — the service's pg_stat_activity: every admitted
//    query registers (session, query hash, phase, start time, context) and
//    can be snapshotted while still in flight.
//
// Layering: unlike src/obs/metrics.h, this header is deliberately free of
// any metrics machinery so the runtime layer may include it — engines charge
// trackers, and the QueryService (which sees both layers) flushes the
// context's peaks into its MetricsRegistry when the query finishes. Building
// with -DLDB_METRICS=OFF compiles Charge/Release down to empty inline
// functions (the context and registry stay functional: the live-query view
// and the post-hoc result budget do not depend on metrics being compiled
// in; only the mid-flight byte attribution does).
//
// Operator classes are plain ints equal to static_cast<int>(PhysKind), kept
// untyped here so this header does not pull in the physical plan.

#ifndef LAMBDADB_OBS_RESOURCE_H_
#define LAMBDADB_OBS_RESOURCE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/thread_annotations.h"
#include "src/runtime/error.h"

#ifndef LDB_METRICS_ENABLED
#define LDB_METRICS_ENABLED 1
#endif

namespace ldb {
namespace obs {

/// Per-query byte and row accounting, shared across the query's threads.
/// All counters are relaxed atomics: totals are exact because every charge
/// is eventually matched by a release through the same Apply path, while
/// peaks are conservative under concurrency (a worker's flush may land
/// after another's release), which is the usual metrics trade.
class QueryResourceContext {
 public:
  /// One slot per PhysKind (13 today; headroom so this header does not need
  /// the enum).
  static constexpr int kMaxOpClasses = 16;

  /// `budget_bytes` is the session's memory budget; 0 = unlimited.
  explicit QueryResourceContext(uint64_t budget_bytes = 0)
      : budget_(budget_bytes) {}
  QueryResourceContext(const QueryResourceContext&) = delete;
  QueryResourceContext& operator=(const QueryResourceContext&) = delete;

  /// Applies a (possibly negative) byte delta to the query total and to
  /// `op_class` (static_cast<int>(PhysKind); out-of-range deltas only touch
  /// the query total). Positive deltas update peaks and latch the
  /// over-budget flag.
  void Apply(int op_class, int64_t delta) {
    int64_t now = in_use_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) {
      RaiseMax(&peak_, now);
      if (budget_ > 0 && now > static_cast<int64_t>(budget_)) {
        over_budget_.store(true, std::memory_order_relaxed);
      }
    }
    if (op_class >= 0 && op_class < kMaxOpClasses) {
      int64_t op_now =
          op_in_use_[op_class].fetch_add(delta, std::memory_order_relaxed) +
          delta;
      if (delta > 0) RaiseMax(&op_peak_[op_class], op_now);
    }
  }

  uint64_t budget_bytes() const { return budget_; }
  /// True once any charge pushed in-use bytes past the budget. Latched: the
  /// abort unwind releases the reservations, but the flag (and the peak)
  /// still tell the service why the query died.
  bool OverBudget() const {
    return over_budget_.load(std::memory_order_relaxed);
  }

  uint64_t InUseBytes() const { return NonNegative(in_use_); }
  uint64_t PeakBytes() const { return NonNegative(peak_); }
  uint64_t OpInUseBytes(int op_class) const {
    return InRange(op_class) ? NonNegative(op_in_use_[op_class]) : 0;
  }
  uint64_t OpPeakBytes(int op_class) const {
    return InRange(op_class) ? NonNegative(op_peak_[op_class]) : 0;
  }

  /// The operator class with the highest peak (ties: lowest class), or -1
  /// when nothing was charged — the query log's "dominant operator".
  int DominantOp() const {
    int best = -1;
    int64_t best_peak = 0;
    for (int c = 0; c < kMaxOpClasses; ++c) {
      int64_t p = op_peak_[c].load(std::memory_order_relaxed);
      if (p > best_peak) {
        best_peak = p;
        best = c;
      }
    }
    return best;
  }

  /// Root-fold rows produced so far (batched by the executors; advisory).
  void AddRows(uint64_t n) {
    if (n > 0) rows_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t RowsSoFar() const { return rows_.load(std::memory_order_relaxed); }

 private:
  static bool InRange(int c) { return c >= 0 && c < kMaxOpClasses; }
  static uint64_t NonNegative(const std::atomic<int64_t>& v) {
    int64_t x = v.load(std::memory_order_relaxed);
    return x > 0 ? static_cast<uint64_t>(x) : 0;
  }
  static void RaiseMax(std::atomic<int64_t>* m, int64_t v) {
    int64_t cur = m->load(std::memory_order_relaxed);
    while (cur < v &&
           !m->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  const uint64_t budget_;
  std::atomic<int64_t> in_use_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> op_in_use_[kMaxOpClasses] = {};
  std::atomic<int64_t> op_peak_[kMaxOpClasses] = {};
  std::atomic<uint64_t> rows_{0};
  std::atomic<bool> over_budget_{false};
};

/// Thrown by MemoryTracker when a charge flush finds the query over its
/// session memory budget. Subclasses EvalError so callers that treat budget
/// rejection as an evaluation failure keep working; the QueryService catches
/// it specifically and logs status "over_budget".
/// (Declared here rather than error.h so the error hierarchy stays free of
/// accounting concepts; runtime code only ever catches it as EvalError.)
class QueryMemoryExceeded : public EvalError {
 public:
  explicit QueryMemoryExceeded(const std::string& msg) : EvalError(msg) {}
  /// Convenience: "<used> bytes exceeds the session memory budget of
  /// <budget> bytes" (the service's post-hoc result and backstop checks).
  QueryMemoryExceeded(uint64_t used_bytes, uint64_t budget_bytes)
      : EvalError("query memory (~" + std::to_string(used_bytes) +
                  " bytes) exceeds the session memory budget of " +
                  std::to_string(budget_bytes) + " bytes") {}
};

/// Per-thread batching front end over a QueryResourceContext. Disarmed (the
/// default, or when metrics are compiled out) every call is a pointer test.
/// Armed, charges/releases accumulate per operator class in plain int64
/// fields and flush to the shared context once `kFlushBytes` have moved —
/// or every `budget / 4 + 1` bytes when the query has a budget, so small
/// budgets are enforced promptly instead of hiding inside one batch.
class MemoryTracker {
 public:
  MemoryTracker() = default;
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;
  ~MemoryTracker() { FlushNoThrow(); }

  /// Attaches the tracker to a query's context (nullptr disarms). Flushes
  /// any pending deltas to the previous context first.
  void Arm(QueryResourceContext* ctx) {
#if LDB_METRICS_ENABLED
    FlushNoThrow();
    ctx_ = ctx;
    flush_bytes_ = kFlushBytes;
    if (ctx_ != nullptr && ctx_->budget_bytes() > 0) {
      uint64_t prompt = ctx_->budget_bytes() / 4 + 1;
      if (prompt < flush_bytes_) flush_bytes_ = prompt;
    }
#else
    (void)ctx;
#endif
  }

  bool armed() const {
#if LDB_METRICS_ENABLED
    return ctx_ != nullptr;
#else
    return false;
#endif
  }
  QueryResourceContext* context() const {
#if LDB_METRICS_ENABLED
    return ctx_;
#else
    return nullptr;
#endif
  }

  /// Reserves `bytes` against `op_class`. May throw QueryMemoryExceeded
  /// when the flush it triggers finds the query over budget.
  void Charge(int op_class, size_t bytes) {
#if LDB_METRICS_ENABLED
    if (ctx_ == nullptr || bytes == 0) return;
    Accumulate(op_class, static_cast<int64_t>(bytes));
    if (unflushed_ >= flush_bytes_) Flush();
#else
    (void)op_class;
    (void)bytes;
#endif
  }

  /// Returns a reservation. Never throws (releases cannot go over budget),
  /// so it is safe from Close() and destructors on the abort unwind.
  void Release(int op_class, size_t bytes) {
#if LDB_METRICS_ENABLED
    if (ctx_ == nullptr || bytes == 0) return;
    Accumulate(op_class, -static_cast<int64_t>(bytes));
    if (unflushed_ >= flush_bytes_) FlushNoThrow();
#else
    (void)op_class;
    (void)bytes;
#endif
  }

  /// Pushes pending deltas to the context; throws QueryMemoryExceeded when
  /// the context reports over budget afterwards.
  void Flush();
  /// Flush variant for destructors and unwind paths: applies the deltas but
  /// swallows the budget verdict.
  void FlushNoThrow();

 private:
  /// Flush threshold without a budget: large enough that a scan-heavy query
  /// touches the shared atomics a handful of times per morsel, small enough
  /// that the in-use gauge tracks reality to within a fraction of a morsel's
  /// state. About 2 000 buffered values at EstimateValueBytes' 16 bytes
  /// per Value.
  static constexpr uint64_t kFlushBytes = 32 * 1024;

#if LDB_METRICS_ENABLED
  void Accumulate(int op_class, int64_t delta) {
    if (op_class < 0 || op_class >= QueryResourceContext::kMaxOpClasses) {
      op_class = QueryResourceContext::kMaxOpClasses - 1;
    }
    pending_[op_class] += delta;
    unflushed_ += static_cast<uint64_t>(delta < 0 ? -delta : delta);
  }

  QueryResourceContext* ctx_ = nullptr;
  int64_t pending_[QueryResourceContext::kMaxOpClasses] = {};
  uint64_t unflushed_ = 0;
  uint64_t flush_bytes_ = kFlushBytes;
#endif
};

/// One in-flight query as seen by ActiveQueryRegistry::Snapshot().
struct ActiveQueryInfo {
  uint64_t query_id = 0;    ///< registry-assigned, monotone per service
  uint64_t session = 0;
  std::string remote;       ///< client address ("ip:port") for wire-protocol
                            ///< sessions; "" for in-process ones
  uint64_t query_hash = 0;  ///< std::hash of the raw OQL text
  std::string phase;        ///< "queued" | "compiling" | "executing"
  double elapsed_ms = 0;    ///< since the service accepted the query;
                            ///< never negative (see Snapshot())
  uint64_t rows = 0;        ///< root rows folded so far
  uint64_t mem_in_use_bytes = 0;
  uint64_t mem_peak_bytes = 0;
};

/// Live view of every query the service has accepted but not finished.
/// Register/Unregister bracket QueryService::Run; one mutex acquisition per
/// query per transition (never on row paths), so it stays active even with
/// metrics compiled out.
class ActiveQueryRegistry {
 public:
  ActiveQueryRegistry() = default;
  ActiveQueryRegistry(const ActiveQueryRegistry&) = delete;
  ActiveQueryRegistry& operator=(const ActiveQueryRegistry&) = delete;

  /// Registers an accepted query in phase "queued"; returns its id.
  /// `remote` is the owning session's client address ("" in-process).
  uint64_t Register(uint64_t session, uint64_t query_hash,
                    std::shared_ptr<const QueryResourceContext> ctx,
                    std::string remote = {}) LDB_EXCLUDES(mu_);
  /// `phase` must be a string with static storage duration.
  void SetPhase(uint64_t id, const char* phase) LDB_EXCLUDES(mu_);
  void Unregister(uint64_t id) LDB_EXCLUDES(mu_);

  /// One entry per registered query. The snapshot reads steady_clock under
  /// mu_, after every returned entry was stamped under mu_ by Register(),
  /// so each elapsed_ms is >= 0.
  std::vector<ActiveQueryInfo> Snapshot() const LDB_EXCLUDES(mu_);
  /// Sum of in-use bytes across every registered query (the service's
  /// ldb_mem_in_use_bytes gauge).
  uint64_t SumInUseBytes() const LDB_EXCLUDES(mu_);
  size_t Count() const LDB_EXCLUDES(mu_);

 private:
  struct Entry {
    uint64_t session = 0;
    std::string remote;
    uint64_t query_hash = 0;
    std::chrono::steady_clock::time_point start;
    const char* phase = "queued";
    std::shared_ptr<const QueryResourceContext> ctx;
  };

  mutable Mutex mu_;
  std::map<uint64_t, Entry> entries_ LDB_GUARDED_BY(mu_);
  uint64_t next_id_ LDB_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace ldb

#endif  // LAMBDADB_OBS_RESOURCE_H_
