// Structured query log: a bounded in-memory ring of QueryLogRecord, one per
// query the QueryService finished (any status). Records above the slow-query
// threshold additionally capture the rendered physical plan and a profiler
// snapshot so a slow query can be diagnosed offline from the log alone.
//
// The ring is append-only under a mutex (one lock per *query*, nothing on
// row paths) and overwrites the oldest record once `capacity` is reached;
// `dropped()` counts the overwritten records.

#ifndef LAMBDADB_OBS_QUERY_LOG_H_
#define LAMBDADB_OBS_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/thread_annotations.h"

namespace ldb {
namespace obs {

/// One finished query. `status` is one of:
///   "ok"          — completed and returned a result
///   "failed"      — threw (parse/type/eval/verify/internal error)
///   "cancelled"   — CancelToken fired or the session deadline expired
///   "rejected"    — admission queue full or admission deadline exceeded
///   "over_budget" — aborted (or refused at materialization) because the
///                   query exceeded the session's memory budget
struct QueryLogRecord {
  uint64_t id = 0;         ///< assigned by Append(); monotone across the log
  uint64_t session = 0;    ///< owning session id (0 = service-internal)
  std::string remote;      ///< client address ("ip:port") for queries that
                           ///< arrived over the wire protocol; "" in-process
  uint64_t query_hash = 0; ///< std::hash of the raw OQL text
  std::string cache_key;   ///< normalized calculus + version stamp ("" if
                           ///< the query failed before compilation)
  std::string status;
  std::string error;       ///< what() when status != "ok"
  bool plan_cached = false;
  uint64_t trace_id = 0;     ///< request trace id (0 = untraced); the key
                             ///< for TraceRing::Find / INTROSPECT trace-by-id
  double queue_wait_ms = 0;  ///< wire-read -> worker pickup (server-side
                             ///< pending-queue wait; 0 for in-process calls)
  double queue_ms = 0;       ///< admission-queue wait inside the service
  double compile_ms = 0;
  double exec_ms = 0;
  double serialize_ms = 0;   ///< result serialization on the server worker
                             ///< (recorded post-hoc; 0 for in-process calls)
  uint64_t rows = 0;       ///< result rows (collection size; 1 for scalars)
  uint64_t mem_peak_bytes = 0;  ///< peak tracked engine memory (0 untracked)
  std::string mem_op;      ///< operator class holding the largest peak
                           ///< ("" when nothing was charged)
  int threads = 1;
  std::string verify;      ///< "" (not run) | "ok" — a verifier rejection
                           ///< surfaces as status="failed" with the error
  bool slow = false;       ///< total >= slow threshold: plan/profile captured
  std::string plan_text;     ///< rendered physical plan (slow queries only)
  std::string profile_json;  ///< ProfileToJson snapshot (slow + profiled)

  /// One-line human-readable rendering (oqlsh `.querylog`).
  std::string ToString() const;
};

class QueryLog {
 public:
  /// `slow_ms <= 0` disables slow-query capture entirely.
  explicit QueryLog(size_t capacity, double slow_ms)
      : capacity_(capacity == 0 ? 1 : capacity), slow_ms_(slow_ms) {
    ring_.resize(capacity_);
  }

  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// A query whose total wall time reaches the threshold *exactly* is slow.
  bool IsSlow(double total_ms) const {
    return slow_ms_ > 0 && total_ms >= slow_ms_;
  }
  double slow_threshold_ms() const { return slow_ms_; }
  size_t capacity() const { return capacity_; }

  /// Assigns the record's id and stores it, overwriting the oldest record
  /// when the ring is full. Returns the assigned id.
  uint64_t Append(QueryLogRecord rec) LDB_EXCLUDES(mu_);

  /// The most recent `n` records, oldest-first.
  std::vector<QueryLogRecord> Tail(size_t n) const LDB_EXCLUDES(mu_);

  /// Fills in the server-side serialize time on an already-appended record.
  /// The service appends the record when the query finishes, but the reply
  /// is serialized *after* that on the server worker — this is the post-hoc
  /// hook. Returns false when the record has been overwritten by wraparound.
  bool SetSerializeMs(uint64_t id, double serialize_ms) LDB_EXCLUDES(mu_);

  uint64_t appended() const LDB_EXCLUDES(mu_);  ///< records ever appended
  uint64_t dropped() const LDB_EXCLUDES(mu_);   ///< overwritten by wraparound
  uint64_t slow_count() const LDB_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  const double slow_ms_;
  mutable Mutex mu_;
  std::vector<QueryLogRecord> ring_ LDB_GUARDED_BY(mu_);
  uint64_t appended_ LDB_GUARDED_BY(mu_) = 0;
  uint64_t slow_ LDB_GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace ldb

#endif  // LAMBDADB_OBS_QUERY_LOG_H_
